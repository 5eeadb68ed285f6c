package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"hammingmesh/internal/obs"
)

// The result cache's accounted bytes must never exceed its budget, and
// eviction must be LRU: the least recently touched key goes first.
func TestCacheBudgetAndLRUOrder(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 100)
	per := entrySize("k0", body)
	c := NewCache(3 * per) // room for exactly three entries

	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), body)
	}
	if _, ok := c.Get("k0"); !ok { // touch k0: k1 becomes LRU
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k3", body) // must evict k1, not k0
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 survived eviction although it was LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted although it was more recently used", k)
		}
	}
	if entries, bytes, _, _, evictions := c.Stats(); entries != 3 || bytes > 3*per || evictions != 1 {
		t.Fatalf("stats = (%d entries, %d bytes, %d evictions), want (3, <= %d, 1)",
			entries, bytes, evictions, 3*per)
	}

	// Churn: the accounted bytes stay under budget through heavy insertion.
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("churn%d", i), body)
		if _, b, _, _, _ := c.Stats(); b > 3*per {
			t.Fatalf("cache holds %d bytes > budget %d after insert %d", b, 3*per, i)
		}
	}
}

// A body larger than the whole budget is served but not retained, and
// replacing a key re-accounts its bytes instead of double counting.
func TestCacheOversizeAndReplace(t *testing.T) {
	c := NewCache(1024)
	c.Put("big", bytes.Repeat([]byte("x"), 2048))
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized body was retained")
	}
	c.Put("k", []byte("short"))
	_, before, _, _, _ := c.Stats()
	c.Put("k", []byte("a-longer-replacement-body"))
	entries, after, _, _, _ := c.Stats()
	if entries != 1 {
		t.Fatalf("replacement duplicated the entry: %d entries", entries)
	}
	want := before - int64(len("short")) + int64(len("a-longer-replacement-body"))
	if after != want {
		t.Fatalf("replacement accounted %d bytes, want %d", after, want)
	}
}

// The batcher flushes when the batch fills, when max-wait expires, and on
// drain at Close; per-item stage timestamps are monotone.
func TestBatcherFlushReasons(t *testing.T) {
	computed := make(chan string, 16)
	var flushes []string
	b := NewBatcher(16, 2, 50*time.Millisecond,
		func(cn *Canon) ([]byte, error) { computed <- cn.Topo; return []byte(cn.Topo), nil },
		func(n int, reason string) { flushes = append(flushes, fmt.Sprintf("%s/%d", reason, n)) })

	item := func(topo string) *batchItem {
		return &batchItem{canon: &Canon{Topo: topo}, done: make(chan struct{})}
	}

	// Two items fill a batch: reason "size".
	i1, i2 := item("a"), item("b")
	if !b.Enqueue(i1) || !b.Enqueue(i2) {
		t.Fatal("enqueue rejected with a near-empty queue")
	}
	<-i1.done
	<-i2.done

	// A lone item flushes on the timer: reason "wait".
	i3 := item("c")
	b.Enqueue(i3)
	<-i3.done
	if !(i3.enqueued.Before(i3.flushed) || i3.enqueued.Equal(i3.flushed)) || i3.served.Before(i3.flushed) {
		t.Fatalf("stage timestamps not monotone: enq=%v flush=%v served=%v",
			i3.enqueued, i3.flushed, i3.served)
	}
	if string(i3.body) != "c" || i3.err != nil {
		t.Fatalf("item got body %q err %v", i3.body, i3.err)
	}

	b.Close()
	if len(flushes) < 2 || !strings.HasPrefix(flushes[0], "size/2") || !strings.HasPrefix(flushes[1], "wait/1") {
		t.Fatalf("flush reasons = %v, want [size/2 wait/1]", flushes)
	}
	if got := len(computed); got != 3 {
		t.Fatalf("computed %d items, want 3", got)
	}
}

// A full queue rejects instead of blocking (the 429 path), and Close
// still completes everything already accepted.
func TestBatcherBackpressureAndDrain(t *testing.T) {
	release := make(chan struct{})
	b := NewBatcher(2, 1, time.Millisecond, func(cn *Canon) ([]byte, error) {
		<-release
		return []byte("done"), nil
	}, nil)

	var items []*batchItem
	accepted := 0
	for i := 0; i < 10; i++ {
		it := &batchItem{canon: &Canon{}, done: make(chan struct{})}
		if b.Enqueue(it) {
			accepted++
			items = append(items, it)
		}
	}
	// Queue capacity 2 plus at most one item already pulled by the flusher.
	if accepted > 3 || accepted < 2 {
		t.Fatalf("accepted %d items on a 2-slot queue, want 2..3", accepted)
	}
	close(release)
	done := make(chan struct{})
	go func() { b.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain")
	}
	for i, it := range items {
		select {
		case <-it.done:
		default:
			t.Fatalf("accepted item %d never completed", i)
		}
	}
}

// The metrics registry renders deterministic Prometheus text exposition:
// families sorted, labeled series, cumulative histogram buckets.
func TestMetricsExposition(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("hxd_zeta_total", "", "z").Add(3)
	r.Counter("hxd_alpha_total", `kind="a"`, "a").Inc()
	r.Counter("hxd_alpha_total", `kind="b"`, "a").Add(2)
	r.GaugeFunc("hxd_depth", "", "queue depth", func() float64 { return 7 })
	h := r.Histogram("hxd_latency_seconds", `stage="queue"`, "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	want := []string{
		"# TYPE hxd_alpha_total counter",
		`hxd_alpha_total{kind="a"} 1`,
		`hxd_alpha_total{kind="b"} 2`,
		"hxd_depth 7",
		`hxd_latency_seconds_bucket{stage="queue",le="0.1"} 1`,
		`hxd_latency_seconds_bucket{stage="queue",le="1"} 2`,
		`hxd_latency_seconds_bucket{stage="queue",le="+Inf"} 3`,
		`hxd_latency_seconds_sum{stage="queue"} 5.55`,
		`hxd_latency_seconds_count{stage="queue"} 3`,
		"hxd_zeta_total 3",
	}
	last := -1
	for _, w := range want {
		i := strings.Index(out, w)
		if i < 0 {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
		if i < last {
			t.Fatalf("exposition out of order at %q:\n%s", w, out)
		}
		last = i
	}
	// Re-registering fetches the same instrument.
	if c := r.Counter("hxd_alpha_total", `kind="a"`, "a"); c.Value() != 1 {
		t.Fatalf("re-registration created a fresh counter (value %d)", c.Value())
	}
}
