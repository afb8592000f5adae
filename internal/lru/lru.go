// Package lru is the repository's one least-recently-used cache: a
// list+map LRU bounded by a cost budget. Each entry carries a caller-
// supplied cost, so the same type bounds by entry count (cost 1, budget
// N — the simserve result cache) or by payload bytes (cost len(blob),
// budget in bytes — the checkpoint store).
//
// A Cache is not safe for concurrent use; its owner guards it with the
// lock that already protects the state around it.
package lru

import "container/list"

// Cache maps keys to values, evicting from the least recently used end
// while the summed cost exceeds the budget.
type Cache[K comparable, V any] struct {
	budget    int64 // <= 0 means unbounded
	used      int64
	order     *list.List // front = most recently used; values are *item[K, V]
	items     map[K]*list.Element
	evictions uint64
}

type item[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New returns a cache bounded to budget cost units; budget <= 0 means
// unbounded.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, order: list.New(), items: map[K]*list.Element{}}
}

// Get returns the value under key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	el, ok := c.items[key]
	if !ok {
		return v, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*item[K, V]).val, true
}

// Peek returns the value under key without touching the recency order.
func (c *Cache[K, V]) Peek(key K) (v V, ok bool) {
	el, ok := c.items[key]
	if !ok {
		return v, false
	}
	return el.Value.(*item[K, V]).val, true
}

// Put inserts or replaces the entry under key as the most recently used
// one, then evicts from the cold end until the budget holds. An entry
// costing more than the whole budget is not cached at all (whatever was
// stored under key before stays).
func (c *Cache[K, V]) Put(key K, val V, cost int64) {
	if c.budget > 0 && cost > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		it := el.Value.(*item[K, V])
		c.used += cost - it.cost
		it.val, it.cost = val, cost
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&item[K, V]{key: key, val: val, cost: cost})
		c.used += cost
	}
	for c.budget > 0 && c.used > c.budget {
		it := c.order.Remove(c.order.Back()).(*item[K, V])
		delete(c.items, it.key)
		c.used -= it.cost
		c.evictions++
	}
}

// Remove drops the entry under key, if any (not counted as an eviction).
func (c *Cache[K, V]) Remove(key K) {
	if el, ok := c.items[key]; ok {
		c.used -= c.order.Remove(el).(*item[K, V]).cost
		delete(c.items, key)
	}
}

// Clear drops every entry (none counted as an eviction).
func (c *Cache[K, V]) Clear() {
	c.order.Init()
	clear(c.items)
	c.used = 0
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Used reports the summed cost of the entries.
func (c *Cache[K, V]) Used() int64 { return c.used }

// Evictions reports how many entries the budget has pushed out.
func (c *Cache[K, V]) Evictions() uint64 { return c.evictions }
