package cache

import (
	"bytes"
	"hash/maphash"
	"sync/atomic"
	"time"
)

// Memo is the level in front of the fingerprint: a bounded map from the
// raw text of a request to what its owner derived from that text, so a
// byte-identical repeat skips decoding and canonicalization. It is one
// more instance of the cache's LRU store, keyed by a hash of the text;
// a hit is confirmed by comparing the bytes, so a hash collision is a
// miss, never a wrong answer. Every hit returns the same V: values must
// be immutable once stored. All methods are safe for concurrent use.
type Memo[V any] struct {
	seed      maphash.Seed
	s         *store[uint64, memoEntry[V]]
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type memoEntry[V any] struct {
	text []byte
	val  V
}

// MemoStats is a point-in-time snapshot of a Memo.
type MemoStats struct {
	// Hits and Misses count Get calls by outcome.
	Hits, Misses int64
	// Evictions counts entries removed by the entry or byte bound.
	Evictions int64
	// Entries is the number of texts resident.
	Entries int
	// Bytes is the approximate resident size: texts, the callers' value
	// estimates, and per-entry overhead.
	Bytes int64
}

// NewMemo builds a memo holding at most maxEntries texts and, when
// maxBytes is positive, at most that many approximate resident bytes.
func NewMemo[V any](maxEntries int, maxBytes int64) *Memo[V] {
	m := &Memo[V]{seed: maphash.MakeSeed()}
	m.s = newStore[uint64, memoEntry[V]](maxEntries, maxBytes, 0, &m.evictions, nil)
	return m
}

// Get returns the value stored for exactly these bytes.
func (m *Memo[V]) Get(text []byte) (V, bool) {
	e, ok := m.s.get(maphash.Bytes(m.seed, text), time.Time{})
	if !ok || !bytes.Equal(e.text, text) {
		m.misses.Add(1)
		var zero V
		return zero, false
	}
	m.hits.Add(1)
	return e.val, true
}

// Put stores v under a copy of text, so the caller may reuse its buffer.
// valBytes is the caller's estimate of v's resident size.
func (m *Memo[V]) Put(text []byte, v V, valBytes int64) {
	m.s.put(maphash.Bytes(m.seed, text), memoEntry[V]{bytes.Clone(text), v}, time.Time{},
		int64(len(text))+valBytes+entryOverhead)
}

// Stats snapshots the memo's counters.
func (m *Memo[V]) Stats() MemoStats {
	return MemoStats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
		Entries:   m.s.len(),
		Bytes:     m.s.sizeBytes(),
	}
}
