package pubsub

import (
	"container/list"
	"encoding/json"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/wire"
)

// Dispatcher implements serve.Dispatch over a Broker: consistent-hash
// ownership, envelopes on dispatch.<node>, completions on complete.<key>
// plus the global completions feed.
type Dispatcher struct {
	broker Broker
	self   string
	nodes  []string
	ring   *ring

	// Latency histograms, nil until InstrumentMetrics wires them in. The
	// server calls it during construction — before this dispatcher carries
	// any of its traffic — so the operation paths read them unguarded.
	sendHist     *obs.Histogram
	announceHist *obs.Histogram
	adoptHist    *obs.Histogram

	mu      sync.Mutex
	cancels []func()
}

// InstrumentMetrics registers the dispatcher's latency families on the
// server's registry (the serve metricsInstrumenter seam). Call before the
// dispatcher serves traffic.
func (d *Dispatcher) InstrumentMetrics(r *obs.Registry) {
	bounds := []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 5}
	d.sendHist = r.Histogram("taserved_pubsub_dispatch_seconds",
		"Envelope publish latency to the owning node's dispatch topic.", bounds)
	d.announceHist = r.Histogram("taserved_pubsub_announce_seconds",
		"Completion announce latency (key topic plus the global feed).", bounds)
	d.adoptHist = r.Histogram("taserved_pubsub_adopt_seconds",
		"Watched-completion adoption latency: decode plus handler.", bounds)
}

var _ serve.Dispatch = (*Dispatcher)(nil)

// Cache implements serve.ResultCache: a bounded LRU of done completion
// events keyed by content hash, fed by the cluster's completions topic (and
// directly by the server adopting remote results). Only State == done
// events are stored — failures are recomputed on resubmission, exactly like
// the single-node job table.
type Cache struct {
	mu    sync.Mutex
	max   int
	items map[string]*list.Element
	order *list.List // of *cacheItem, front = most recently used
}

type cacheItem struct {
	key string
	ev  api.CompletionEvent
}

var _ serve.ResultCache = (*Cache)(nil)

// NewNode wires one cluster node's backends: a Dispatcher routing over the
// members {nodeID} ∪ peers, and a Cache replicating every done result
// announced anywhere in the cluster (bounded LRU of cacheSize entries,
// default 256). All nodes sharing the broker and the same member list agree
// on ownership.
func NewNode(b Broker, nodeID string, peers []string, cacheSize int) (*Dispatcher, *Cache, error) {
	members := append([]string{nodeID}, peers...)
	seen := map[string]bool{}
	uniq := members[:0]
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	d := &Dispatcher{broker: b, self: nodeID, nodes: uniq, ring: newRing(uniq)}
	c := NewCache(cacheSize)
	cancel, err := b.Subscribe("completions", func(msg []byte) {
		var ev api.CompletionEvent
		if json.Unmarshal(msg, &ev) == nil {
			c.Put(ev)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	d.cancels = append(d.cancels, cancel)
	return d, c, nil
}

func (d *Dispatcher) Self() string { return d.self }

func (d *Dispatcher) Nodes() []string {
	out := make([]string, len(d.nodes))
	copy(out, d.nodes)
	return out
}

func (d *Dispatcher) Owner(key string) string { return d.ring.owner(key) }

func (d *Dispatcher) Send(owner string, envelope []byte) error {
	start := time.Now()
	// Retained: an owner that subscribes late still hears the envelope.
	err := d.broker.Publish("dispatch."+owner, envelope, true)
	if d.sendHist != nil {
		d.sendHist.ObserveSince(start)
	}
	return err
}

func (d *Dispatcher) Watch(key string, fn func(api.CompletionEvent)) (func(), error) {
	cancelSub, err := d.broker.Subscribe("complete."+key, func(msg []byte) {
		start := time.Now()
		var ev api.CompletionEvent
		if json.Unmarshal(msg, &ev) == nil {
			fn(ev)
			if d.adoptHist != nil {
				d.adoptHist.ObserveSince(start)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// Transport-death watchdog: a watcher must never hang on a broker that
	// went away, so broker close synthesizes a failed completion with the
	// named dispatch-failure code (the server falls back to computing
	// locally on it).
	stop := make(chan struct{})
	go func() {
		select {
		case <-d.broker.Closed():
			fn(api.CompletionEvent{Key: key, Node: d.self,
				State: api.StateFailed, Error: wire.CodeDispatchFailed})
		case <-stop:
		}
	}()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			close(stop)
			cancelSub()
		})
	}
	d.track(cancel)
	return cancel, nil
}

// Announce retains done events only. A result is immutable, so replaying it
// to a watcher that joins after the fact is the answer that watcher wants. A
// failure is the outcome of one attempt: every proxy watches before it sends
// its envelope, so the failure of the attempt that envelope starts (or joins,
// or is refused by) reaches it live, and replaying an earlier attempt's
// failure would answer a resubmission without the recompute it is owed.
func (d *Dispatcher) Announce(ev api.CompletionEvent) error {
	msg, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	retain := ev.State == api.StateDone
	start := time.Now()
	defer func() {
		if d.announceHist != nil {
			d.announceHist.ObserveSince(start)
		}
	}()
	if err := d.broker.Publish("complete."+ev.Key, msg, retain); err != nil {
		return err
	}
	return d.broker.Publish("completions", msg, retain)
}

func (d *Dispatcher) Receive(fn func(envelope []byte)) error {
	cancel, err := d.broker.Subscribe("dispatch."+d.self, fn)
	if err != nil {
		return err
	}
	d.track(cancel)
	return nil
}

// Close releases this node's subscriptions. The broker itself is shared and
// stays up for the other nodes.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	cancels := d.cancels
	d.cancels = nil
	d.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	return nil
}

func (d *Dispatcher) track(cancel func()) {
	d.mu.Lock()
	d.cancels = append(d.cancels, cancel)
	d.mu.Unlock()
}

// NewCache returns an empty replicated-result cache holding at most max
// entries (default 256).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 256
	}
	return &Cache{max: max, items: make(map[string]*list.Element), order: list.New()}
}

func (c *Cache) Get(key string) (api.CompletionEvent, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.items[key]
	if el == nil {
		return api.CompletionEvent{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem).ev, true
}

func (c *Cache) Put(ev api.CompletionEvent) {
	if ev.State != api.StateDone || ev.Key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.items[ev.Key]; el != nil {
		// Duplicate announcement of an immutable result: refresh recency,
		// keep the first bytes (they are identical by the wire invariant).
		c.order.MoveToFront(el)
		return
	}
	c.items[ev.Key] = c.order.PushFront(&cacheItem{key: ev.Key, ev: ev})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		delete(c.items, oldest.Value.(*cacheItem).key)
		c.order.Remove(oldest)
	}
}

func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
