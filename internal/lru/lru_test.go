package lru

import (
	"reflect"
	"testing"
)

// order lists the keys from least to most recently used.
func order(c *Cache[int]) []string {
	var keys []string
	c.Oldest(func(k string, _ int) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

func TestEvictionOrder(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if k, v, ev := c.Put("c", 3); !ev || k != "a" || v != 1 {
		t.Fatalf("expected eviction of a/1, got %q/%d ev=%t", k, v, ev)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a") // a is now MRU; next eviction hits b
	if k, _, ev := c.Put("c", 3); !ev || k != "b" {
		t.Fatalf("expected eviction of b, got %q ev=%t", k, ev)
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a lost: %d %t", v, ok)
	}
	// The Get above made a MRU again.
	if got := order(c); !reflect.DeepEqual(got, []string{"c", "a"}) {
		t.Fatalf("keys = %v", got)
	}
}

func TestPutUpdatesInPlace(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("a = %d, want 9", v)
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[int](0)
	c.Put("a", 1)
	if _, _, ev := c.Put("b", 2); !ev {
		t.Fatal("capacity floor of 1 should evict on second insert")
	}
}

func TestRemoveOldest(t *testing.T) {
	c := New[int](3)
	if _, _, ok := c.RemoveOldest(); ok {
		t.Fatal("RemoveOldest on empty cache reported an entry")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")
	if k, v, ok := c.RemoveOldest(); !ok || k != "b" || v != 2 {
		t.Fatalf("RemoveOldest = %q %d %v, want b 2 true", k, v, ok)
	}
	if _, ok := c.Get("b"); ok || c.Len() != 1 {
		t.Fatalf("b still present or Len = %d", c.Len())
	}
}

func TestOldest(t *testing.T) {
	c := New[int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a")
	var seen []string
	c.Oldest(func(k string, _ int) bool {
		seen = append(seen, k)
		return k != "c"
	})
	if !reflect.DeepEqual(seen, []string{"b", "c"}) {
		t.Fatalf("Oldest visited %v, want [b c]", seen)
	}
	if got := order(c); !reflect.DeepEqual(got, []string{"b", "c", "a"}) {
		t.Fatalf("Oldest changed the order: %v", got)
	}
}
