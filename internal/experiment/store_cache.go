package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"gossipmia/internal/jsonenc"
	"gossipmia/internal/store"
	"gossipmia/pkg/dlsim/result"
)

// The arm cache. Every directory-backed run keeps its per-arm results
// in one embedded store (internal/store) — OutDir/store unless several
// runs share one, as the job service's do — so a resume reads one log
// at indexed offsets instead of opening a file per arm. Each record is
// the arm's canonical result.ArmResult JSON, written by its AppendJSON,
// behind its sum. The trust rule: a record is trusted only if its bytes
// are exactly the canonical encoding of an arm with this label, behind a
// matching sum — checked by result.ReadCanonical, the strict reader, in
// one pass. Anything else is recomputed.
//
// Key space:
//
//	"a!" + <64-hex arm content hash>          → <64-hex sum> ArmResult JSON
//	"i!" + spec + "\x00" + label + "\x00" + hash[:16]
//	                                          → StoreArmSummary JSON
//
// The "a!" row is the resume cache, read by point lookup. The "i!" row
// is the listing index: its key embeds the figure name and the arm
// label — which carries the sweep-axis value, e.g. "purchase100
// beta=0.25" — so `dlsim list -store` serves a figure's arms with one
// bounded range scan in label order, no record-body reads.
// spec.Validate rejects control characters in names and labels, so a
// spec file cannot forge the NUL separators.
const (
	storeArmPrefix   = "a!"
	storeIndexPrefix = "i!"
)

// storeArmKey returns the record key of an arm's cached result.
func storeArmKey(key string) string { return storeArmPrefix + key }

// storeIndexKey returns the listing-index key of an arm.
func storeIndexKey(specName, label, key string) string {
	var buf [128]byte
	return string(appendStoreIndexKey(buf[:0], specName, label, key))
}

// appendStoreIndexKey appends the listing-index key of an arm to b.
func appendStoreIndexKey(b []byte, specName, label, key string) []byte {
	short := key
	if len(short) > 16 {
		short = short[:16]
	}
	b = append(append(append(b, storeIndexPrefix...), specName...), 0)
	return append(append(append(b, label...), 0), short...)
}

// sumLen is the length of the hex sha256 that prefixes a cached record.
const sumLen = 2 * sha256.Size

// appendArmRecord appends an executed arm's cache record to b: the
// arm's canonical result.ArmResult JSON (AppendJSON) — the bytes a
// fleet upload's checksum covers — behind result.Sum of exactly those
// bytes, written into the sumLen bytes reserved ahead of them.
func appendArmRecord(b []byte, arm Arm) ([]byte, error) {
	start := len(b)
	rec, err := arm.Result().AppendJSON(append(b, make([]byte, sumLen)...))
	if err != nil {
		return b, fmt.Errorf("experiment: cache record: %w", err)
	}
	sum := sha256.Sum256(rec[start+sumLen:])
	hex.Encode(rec[start:start+sumLen], sum[:])
	return rec, nil
}

// decodeArmRecord validates and decodes one cached arm record by the
// trust rule above — so a torn or corrupted record, one in an older
// format, or one another arm wrote is ignored (and the arm recomputed)
// rather than resumed from. The key needs no check here: the store
// checks each frame's key on read.
func decodeArmRecord(raw []byte, label string) (Arm, bool) {
	if len(raw) < sumLen {
		return Arm{}, false
	}
	body := raw[sumLen:]
	sum := sha256.Sum256(body)
	var hexSum [sumLen]byte
	hex.Encode(hexSum[:], sum[:])
	if !bytes.Equal(hexSum[:], raw[:sumLen]) {
		return Arm{}, false
	}
	res, ok := result.ReadCanonical(body)
	if !ok || res.Label != label {
		return Arm{}, false
	}
	return ArmOf(res), true
}

// StoreArmSummary is the listing-index row of one cached arm: the
// headline metrics of results.csv, keyed for range scans by figure.
type StoreArmSummary struct {
	Spec     string  `json:"spec"`
	Label    string  `json:"label"`
	Key      string  `json:"key"`
	MaxAcc   float64 `json:"maxAcc"`
	MIAAtMax float64 `json:"miaAtMax"`
	Messages int     `json:"messages"`
	Bytes    int64   `json:"bytes"`
	Epsilon  float64 `json:"epsilon,omitempty"`
}

// storeArmSummary builds the index row for a finished arm.
func storeArmSummary(specName, key string, arm Arm) StoreArmSummary {
	at := arm.AtMaxTestAcc()
	return StoreArmSummary{
		Spec:     specName,
		Label:    arm.Label,
		Key:      key,
		MaxAcc:   at.TestAcc,
		MIAAtMax: at.MIAAcc,
		Messages: arm.MessagesSent,
		Bytes:    arm.BytesSent,
		Epsilon:  arm.RealizedEpsilon,
	}
}

// appendJSON appends the row's JSON to b: exactly the bytes json.Marshal
// emits for it. A NaN or an infinity is an error, and b is returned as
// it was.
func (s StoreArmSummary) appendJSON(b []byte) ([]byte, error) {
	e := jsonenc.Encoder{Buf: b}
	e.String(`{"spec":`, s.Spec)
	e.String(`,"label":`, s.Label)
	e.String(`,"key":`, s.Key)
	e.Float(`,"maxAcc":`, s.MaxAcc)
	e.Float(`,"miaAtMax":`, s.MIAAtMax)
	e.Int(`,"messages":`, int64(s.Messages))
	e.Int(`,"bytes":`, s.Bytes)
	if s.Epsilon != 0 {
		e.Float(`,"epsilon":`, s.Epsilon)
	}
	e.Raw(`}`)
	if e.Err != nil {
		return b, e.Err
	}
	return e.Buf, nil
}

// recordBufs recycles the buffers a commit builds its record and index
// row in, and a lookup its keys: store.Put copies what it is handed into
// its frame before it returns, so a commit allocates only the keys the
// store's index keeps, and a probe of a []byte key makes no string.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// armCache is one run's view of the arm store: the spec's arms by
// index and their content-hash keys. Methods are safe for concurrent
// use (the store serializes its own writes).
type armCache struct {
	st   *store.Store
	spec string
	keys []string
}

// openArmCache opens (creating if needed) the store at dir through the
// process-wide shared handle; the returned release drops this run's
// reference.
func openArmCache(dir, specName string, keys []string) (*armCache, func() error, error) {
	st, release, err := store.OpenShared(dir, store.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: result store: %w", err)
	}
	return &armCache{st: st, spec: specName, keys: keys}, release, nil
}

// lookup returns arm i's cached record if it is trustworthy: one point
// lookup, whatever else a shared store holds. A record the store
// cannot read back (its checksum no longer reproduces) is a miss like
// any other, and the arm is recomputed. A crash may have made the
// record durable but torn the listing-index row behind it; the row is
// repaired in passing — the existence probe reads the store's
// in-memory index, so resuming 10^5 intact arms writes nothing.
func (c *armCache) lookup(i int, label string) (Arm, bool) {
	buf := recordBufs.Get().(*[]byte)
	key := append(append((*buf)[:0], storeArmPrefix...), c.keys[i]...)
	defer func() {
		*buf = key[:0]
		recordBufs.Put(buf)
	}()
	raw, ok, err := c.st.GetBytes(key)
	if err != nil || !ok {
		return Arm{}, false
	}
	arm, ok := decodeArmRecord(raw, label)
	if !ok {
		return Arm{}, false
	}
	key = appendStoreIndexKey(key[:0], c.spec, label, c.keys[i])
	has, err := c.st.HasBytes(key)
	if err == nil && !has {
		err = c.putIndex(i, arm)
	}
	return arm, err == nil
}

// put commits arm i: the full record, then its listing-index row.
func (c *armCache) put(i int, arm Arm) error {
	buf := recordBufs.Get().(*[]byte)
	rec, err := appendArmRecord((*buf)[:0], arm)
	if err == nil {
		err = c.st.Put(storeArmKey(c.keys[i]), rec)
	}
	*buf = rec[:0]
	recordBufs.Put(buf)
	if err != nil {
		return err
	}
	return c.putIndex(i, arm)
}

// putIndex writes arm i's listing-index row.
func (c *armCache) putIndex(i int, arm Arm) error {
	buf := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(buf)
	row, err := storeArmSummary(c.spec, c.keys[i], arm).appendJSON((*buf)[:0])
	*buf = row[:0]
	if err != nil {
		return fmt.Errorf("experiment: index row: %w", err)
	}
	return c.st.Put(storeIndexKey(c.spec, arm.Label, c.keys[i]), row)
}

// ListStoreArms pages through a store's listing index in (figure,
// label) order without reading record bodies. figure == "" lists every
// figure; limit <= 0 means no limit. It returns the page, the total
// number of matching rows, and opens the store read-only — safe
// against a store another process is writing.
func ListStoreArms(dir, figure string, limit, offset int) ([]StoreArmSummary, int, error) {
	st, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	start := storeIndexPrefix
	if figure != "" {
		start = storeIndexPrefix + figure + "\x00"
	}
	end := store.PrefixEnd(start)
	var page []StoreArmSummary
	total := 0
	err = st.Scan(start, end, func(k string, v []byte) error {
		total++
		if total <= offset || (limit > 0 && len(page) >= limit) {
			return nil
		}
		var s StoreArmSummary
		if err := json.Unmarshal(v, &s); err != nil {
			return fmt.Errorf("experiment: index row %q: %w", k, err)
		}
		page = append(page, s)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return page, total, nil
}

// FormatStoreArms renders a listing page as the aligned text table
// `dlsim list -store` prints.
func FormatStoreArms(page []StoreArmSummary, total, offset int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d cached arms", total)
	if len(page) < total {
		fmt.Fprintf(&b, " (showing %d-%d)", offset+1, offset+len(page))
	}
	b.WriteString("\n")
	for _, s := range page {
		fmt.Fprintf(&b, "%s\t%s\tacc=%.4f mia=%.4f msgs=%d key=%s\n",
			s.Spec, s.Label, s.MaxAcc, s.MIAAtMax, s.Messages, s.Key[:min(16, len(s.Key))])
	}
	return b.String()
}
