// Package mutex provides distributed mutual exclusion over the adaptive
// token-passing layer — the paper's canonical application ("all our results
// are applicable to mutual exclusion"): possession of the circulating token
// is the critical-section right.
package mutex

import (
	"context"
	"errors"
	"sync"

	"adaptivetoken/internal/node"
)

// ErrNotHeld is returned by Unlock without a matching Lock.
var ErrNotHeld = errors.New("mutex: not held")

// Mutex is a distributed lock backed by one node's runtime. It serializes
// local lockers (like sync.Mutex) and uses the token protocol across nodes.
type Mutex struct {
	rt *node.Runtime

	mu     sync.Mutex
	locked bool

	localQ chan struct{} // serializes local contenders
}

// New wraps a runtime as a distributed mutex.
func New(rt *node.Runtime) *Mutex {
	m := &Mutex{rt: rt, localQ: make(chan struct{}, 1)}
	m.localQ <- struct{}{}
	return m
}

// Lock acquires the distributed lock, blocking until granted or ctx is
// done. Local goroutines queue FIFO-ish on a semaphore; the token protocol
// arbitrates between nodes.
func (m *Mutex) Lock(ctx context.Context) error {
	select {
	case <-m.localQ:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := m.rt.Acquire(ctx); err != nil {
		m.localQ <- struct{}{}
		return err
	}
	m.mu.Lock()
	m.locked = true
	m.mu.Unlock()
	return nil
}

// Unlock releases the distributed lock.
func (m *Mutex) Unlock() error {
	m.mu.Lock()
	if !m.locked {
		m.mu.Unlock()
		return ErrNotHeld
	}
	m.locked = false
	m.mu.Unlock()
	m.rt.Release()
	m.localQ <- struct{}{}
	return nil
}
