// Package pubsub implements the serve backend seams (Dispatch, ResultCache)
// over a publish/subscribe broker, in the thin-adapter style: the broker
// knows nothing about jobs, the adapters translate the server's routing and
// replication operations onto three topic families —
//
//	dispatch.<node>   envelopes addressed to the node owning a content hash
//	complete.<key>    the terminal event of one content key
//	completions       the cluster-wide replication feed every cache consumes
//
// Ownership is consistent hashing over the member list (ring.go): every node
// derives the same owner for a key without coordination. The in-process
// memory broker below is the only Broker: a fleet is formed inside one
// process by handing every node (NewNode) the same NewMemBroker value, as the
// tests, scripts/servesmoke -cluster and the benchmark do.
package pubsub

import (
	"errors"
	"sync"
)

// ErrClosed is returned by operations on a closed broker.
var ErrClosed = errors.New("pubsub: broker is closed")

// Broker is the minimal transport contract the adapters need. Delivery is
// at-least-once from the subscriber's point of view: a topic replays its last
// retained message to new subscribers (join-after-publish), so a handler may
// see a message twice and must be idempotent.
type Broker interface {
	// Publish delivers msg to every current subscriber of topic. With retain
	// it also becomes the topic's last message, replayed to future
	// subscribers; without, it reaches the current ones only and whatever the
	// topic retained before stays.
	Publish(topic string, msg []byte, retain bool) error
	// Subscribe registers fn for topic messages, replaying the retained
	// message first if one exists. The returned cancel releases the
	// subscription.
	Subscribe(topic string, fn func(msg []byte)) (cancel func(), err error)
	// Closed returns a channel closed when the broker shuts down — the
	// transport-death signal Watch turns into a synthetic failed completion.
	Closed() <-chan struct{}
	// Close shuts the broker down; subsequent publishes and subscribes fail
	// with ErrClosed.
	Close() error
}

// memBroker is the in-process Broker: a topic map under one mutex, handlers
// invoked synchronously but outside the lock (so a handler may publish —
// e.g. an overloaded owner announcing a rejection from inside its envelope
// handler — without deadlocking).
type memBroker struct {
	mu     sync.Mutex
	topics map[string]*memTopic
	nextID int
	closed chan struct{}
}

type memTopic struct {
	subs     map[int]func([]byte)
	retained []byte
	hasMsg   bool
}

// NewMemBroker returns an empty in-process broker.
func NewMemBroker() Broker {
	return &memBroker{topics: make(map[string]*memTopic), closed: make(chan struct{})}
}

func (b *memBroker) isClosed() bool {
	select {
	case <-b.closed:
		return true
	default:
		return false
	}
}

func (b *memBroker) topicLocked(name string) *memTopic {
	t := b.topics[name]
	if t == nil {
		t = &memTopic{subs: make(map[int]func([]byte))}
		b.topics[name] = t
	}
	return t
}

func (b *memBroker) Publish(topic string, msg []byte, retain bool) error {
	b.mu.Lock()
	if b.isClosed() {
		b.mu.Unlock()
		return ErrClosed
	}
	t := b.topicLocked(topic)
	if retain {
		t.retained = msg
		t.hasMsg = true
	}
	fns := make([]func([]byte), 0, len(t.subs))
	for _, fn := range t.subs {
		fns = append(fns, fn)
	}
	b.mu.Unlock()
	for _, fn := range fns {
		fn(msg)
	}
	return nil
}

func (b *memBroker) Subscribe(topic string, fn func([]byte)) (func(), error) {
	b.mu.Lock()
	if b.isClosed() {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	t := b.topicLocked(topic)
	id := b.nextID
	b.nextID++
	t.subs[id] = fn
	replay := t.retained
	hasMsg := t.hasMsg
	b.mu.Unlock()
	// Join-after-publish: a watcher that subscribes after the completion was
	// announced still hears it. Replayed outside the lock; a concurrent
	// publish may then deliver twice, which the at-least-once contract
	// already requires handlers to tolerate.
	if hasMsg {
		fn(replay)
	}
	cancel := func() {
		b.mu.Lock()
		if t := b.topics[topic]; t != nil {
			delete(t.subs, id)
		}
		b.mu.Unlock()
	}
	return cancel, nil
}

func (b *memBroker) Closed() <-chan struct{} { return b.closed }

func (b *memBroker) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.isClosed() {
		close(b.closed)
		b.topics = make(map[string]*memTopic)
	}
	return nil
}
