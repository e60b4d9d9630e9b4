package store

import (
	"fmt"
	"path/filepath"
	"sync"
)

// sharedHandle refcounts one open Store across in-process users. The
// server runs concurrent jobs against one checkpoint store; the flock
// excludes other processes, and this registry shares the single
// in-process handle instead of failing the second opener.
type sharedHandle struct {
	store *Store
	refs  int
}

var (
	sharedMu sync.Mutex
	shared   = map[string]*sharedHandle{}
)

// OpenShared opens dir like Open, but if this process already holds
// the store open via OpenShared, it returns the same handle with its
// reference count bumped. Close releases one reference; the store
// actually closes when the last reference does. Options apply only to
// the first open.
func OpenShared(dir string, opts Options) (*Store, func() error, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open shared: %w", err)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if h, ok := shared[abs]; ok {
		h.refs++
		return h.store, sharedRelease(abs), nil
	}
	s, err := Open(abs, opts)
	if err != nil {
		return nil, nil, err
	}
	shared[abs] = &sharedHandle{store: s, refs: 1}
	return s, sharedRelease(abs), nil
}

// sharedRelease builds the release func for one OpenShared reference.
func sharedRelease(abs string) func() error {
	released := false
	return func() error {
		sharedMu.Lock()
		defer sharedMu.Unlock()
		if released {
			return nil
		}
		released = true
		h, ok := shared[abs]
		if !ok {
			return nil
		}
		h.refs--
		if h.refs > 0 {
			return nil
		}
		delete(shared, abs)
		return h.store.Close()
	}
}
