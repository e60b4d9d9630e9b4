package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"gossipmia/internal/metrics"
	"gossipmia/internal/store"
)

// The arm cache. Every directory-backed run keeps its per-arm results
// in one embedded store (internal/store) — OutDir/store unless several
// runs share one, as the job service's do — so a resume reads one log
// at indexed offsets instead of opening a file per arm. Each record is
// canonical JSON with a self-checksum and is trusted only when it
// decodes, reproduces its Sum, and matches the arm's key and label;
// anything else is recomputed.
//
// Key space:
//
//	"a!" + <64-hex arm content hash>          → armRecord JSON
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
	short := key
	if len(short) > 16 {
		short = short[:16]
	}
	return storeIndexPrefix + specName + "\x00" + label + "\x00" + short
}

// armRecord is the cached result of one arm.
type armRecord struct {
	Label           string                `json:"label"`
	Key             string                `json:"key"`
	Records         []metrics.RoundRecord `json:"records"`
	MessagesSent    int                   `json:"messagesSent"`
	BytesSent       int                   `json:"bytesSent"`
	RealizedEpsilon float64               `json:"realizedEpsilon,omitempty"`
	NoiseMultiplier float64               `json:"noiseMultiplier,omitempty"`
	// Sum is the integrity checksum of the entry: the SHA-256 of the
	// record's canonical JSON with this field empty. A record whose
	// content does not reproduce its Sum — truncated, hand-edited, or
	// torn — is ignored on resume and the arm recomputed.
	Sum string `json:"sum"`
}

// arm converts a validated record back into the executed form.
func (c armRecord) arm() Arm {
	return Arm{
		Label:           c.Label,
		Series:          &metrics.Series{Label: c.Label, Records: c.Records},
		MessagesSent:    c.MessagesSent,
		BytesSent:       c.BytesSent,
		RealizedEpsilon: c.RealizedEpsilon,
		NoiseMultiplier: c.NoiseMultiplier,
	}
}

// checksum returns the integrity sum of the record's content.
func (c armRecord) checksum() (string, error) {
	c.Sum = ""
	raw, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("experiment: cache checksum: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// encodeArmRecord renders an executed arm as its checksummed record.
func encodeArmRecord(key string, arm Arm) ([]byte, error) {
	rec := armRecord{
		Label:           arm.Label,
		Key:             key,
		Records:         arm.Series.Records,
		MessagesSent:    arm.MessagesSent,
		BytesSent:       arm.BytesSent,
		RealizedEpsilon: arm.RealizedEpsilon,
		NoiseMultiplier: arm.NoiseMultiplier,
	}
	sum, err := rec.checksum()
	if err != nil {
		return nil, err
	}
	rec.Sum = sum
	return json.MarshalIndent(rec, "", " ")
}

// decodeArmRecord validates and decodes one cached arm record: the
// JSON must decode, its integrity checksum must reproduce, and the key
// (content hash) and label must both match — so a truncated or
// corrupted record, or one written by a different spec, scale, or
// seed, is ignored (and the arm recomputed) rather than resumed from.
func decodeArmRecord(raw []byte, key, label string) (Arm, bool) {
	if len(raw) == 0 {
		return Arm{}, false
	}
	var rec armRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Arm{}, false
	}
	if sum, err := rec.checksum(); err != nil || rec.Sum != sum {
		return Arm{}, false
	}
	if rec.Key != key || rec.Label != label {
		return Arm{}, false
	}
	return rec.arm(), true
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
	Bytes    int     `json:"bytes"`
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
	raw, ok, err := c.st.Get(storeArmKey(c.keys[i]))
	if err != nil || !ok {
		return Arm{}, false
	}
	arm, ok := decodeArmRecord(raw, c.keys[i], label)
	if !ok {
		return Arm{}, false
	}
	has, err := c.st.Has(storeIndexKey(c.spec, label, c.keys[i]))
	if err == nil && !has {
		err = c.putIndex(i, arm)
	}
	return arm, err == nil
}

// put commits arm i: the full record, then its listing-index row.
func (c *armCache) put(i int, arm Arm) error {
	raw, err := encodeArmRecord(c.keys[i], arm)
	if err != nil {
		return err
	}
	if err := c.st.Put(storeArmKey(c.keys[i]), raw); err != nil {
		return err
	}
	return c.putIndex(i, arm)
}

// putIndex writes arm i's listing-index row.
func (c *armCache) putIndex(i int, arm Arm) error {
	idx, err := json.Marshal(storeArmSummary(c.spec, c.keys[i], arm))
	if err != nil {
		return fmt.Errorf("experiment: index row: %w", err)
	}
	return c.st.Put(storeIndexKey(c.spec, arm.Label, c.keys[i]), idx)
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
