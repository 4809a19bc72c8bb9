// Package lru is a minimal least-recently-used map used by the
// serving layer's analyzer registry. It is intentionally not
// goroutine-safe: the registry already holds a lock around every
// cache operation, and pushing a second mutex down here would only
// hide ordering bugs.
package lru

import "container/list"

// Cache maps string keys to values of type V, evicting the least
// recently used entry once Len exceeds the capacity.
type Cache[V any] struct {
	capacity int
	order    *list.List // front = most recently used
	index    map[string]*list.Element
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty cache. Capacity must be positive.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[string]*list.Element, capacity),
	}
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	if el, ok := c.index[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or updates key, marking it most recently used. When the
// insert pushes the cache over capacity it evicts the LRU entry and
// returns its key and value with evicted=true.
func (c *Cache[V]) Put(key string, val V) (evictedKey string, evictedVal V, evicted bool) {
	if el, ok := c.index[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*entry[V]).val = val
		var zero V
		return "", zero, false
	}
	c.index[key] = c.order.PushFront(&entry[V]{key: key, val: val})
	if c.order.Len() <= c.capacity {
		var zero V
		return "", zero, false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	e := oldest.Value.(*entry[V])
	delete(c.index, e.key)
	return e.key, e.val, true
}

// RemoveOldest deletes the least recently used entry and returns it,
// with ok=false when the cache is empty.
func (c *Cache[V]) RemoveOldest() (key string, val V, ok bool) {
	oldest := c.order.Back()
	if oldest == nil {
		return "", val, false
	}
	c.order.Remove(oldest)
	e := oldest.Value.(*entry[V])
	delete(c.index, e.key)
	return e.key, e.val, true
}

// Oldest calls f on the entries from least to most recently used,
// without changing their order, until f returns false.
func (c *Cache[V]) Oldest(f func(key string, val V) bool) {
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry[V])
		if !f(e.key, e.val) {
			return
		}
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return c.order.Len() }
