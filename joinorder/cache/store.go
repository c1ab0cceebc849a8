package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// store is a concurrency-safe bounded map with LRU eviction and optional
// TTL expiry. The Optimizer instantiates it for exact entries (full cached
// results) and for shape-level warm-start donors, Memo for request texts.
// Bounds are enforced on entry count and, when maxBytes is set,
// on the summed entry sizes — the latter is what keeps a persistent-log
// replay larger than the configured LRU from blowing memory.
type store[K comparable, V any] struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	ttl      time.Duration
	ll       *list.List // front = most recently used
	m        map[K]*list.Element
	bytes    int64
	evicted  *atomic.Int64
	expired  *atomic.Int64
}

type storeEntry[K comparable, V any] struct {
	key  K
	val  V
	at   time.Time // insertion time, for TTL
	hits int64
	size int64 // approximate resident bytes, 0 when untracked
}

func newStore[K comparable, V any](max int, maxBytes int64, ttl time.Duration, evicted, expired *atomic.Int64) *store[K, V] {
	return &store[K, V]{
		max:      max,
		maxBytes: maxBytes,
		ttl:      ttl,
		ll:       list.New(),
		m:        make(map[K]*list.Element),
		evicted:  evicted,
		expired:  expired,
	}
}

// get returns the live value for key, bumping it to most-recently-used and
// counting a per-entry hit. An entry past its TTL is removed and reported
// as absent, so a stale plan is never served.
func (s *store[K, V]) get(key K, now time.Time) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	e := el.Value.(*storeEntry[K, V])
	if s.stale(e, now) {
		s.removeLocked(el)
		if s.expired != nil {
			s.expired.Add(1)
		}
		var zero V
		return zero, false
	}
	e.hits++
	s.ll.MoveToFront(el)
	return e.val, true
}

// has reports whether get would find a live value for key, without being a
// lookup: recency, the hit count and the expiry counter stay as they were,
// and an entry past its TTL is left for get to remove.
func (s *store[K, V]) has(key K, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	return ok && !s.stale(el.Value.(*storeEntry[K, V]), now)
}

// stale reports whether e has outlived the TTL.
func (s *store[K, V]) stale(e *storeEntry[K, V], now time.Time) bool {
	return s.ttl > 0 && now.Sub(e.at) > s.ttl
}

// put inserts or replaces the value for key, evicting least recently used
// entries while either bound (entry count, summed bytes) is exceeded.
// Replacement resets the TTL clock (the entry was just recomputed) but
// keeps the hit count. It returns the number of evictions the insert
// caused.
func (s *store[K, V]) put(key K, v V, now time.Time, size int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*storeEntry[K, V])
		s.bytes += size - e.size
		e.val, e.at, e.size = v, now, size
		s.ll.MoveToFront(el)
		return 0
	}
	s.m[key] = s.ll.PushFront(&storeEntry[K, V]{key: key, val: v, at: now, size: size})
	s.bytes += size
	evictions := 0
	for (s.max > 0 && s.ll.Len() > s.max) || (s.maxBytes > 0 && s.bytes > s.maxBytes) {
		back := s.ll.Back()
		if back == nil {
			break
		}
		s.removeLocked(back)
		evictions++
		if s.evicted != nil {
			s.evicted.Add(1)
		}
	}
	return evictions
}

// remove deletes key, reporting whether it was resident.
func (s *store[K, V]) remove(key K) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return false
	}
	s.removeLocked(el)
	return true
}

// removeLocked unlinks one element. Called with mu held.
func (s *store[K, V]) removeLocked(el *list.Element) {
	e := el.Value.(*storeEntry[K, V])
	s.ll.Remove(el)
	delete(s.m, e.key)
	s.bytes -= e.size
}

func (s *store[K, V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

func (s *store[K, V]) sizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// each visits every resident entry in most-recently-used order.
func (s *store[K, V]) each(now time.Time, fn func(key K, v V, age time.Duration, hits int64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*storeEntry[K, V])
		fn(e.key, e.val, now.Sub(e.at), e.hits)
	}
}
