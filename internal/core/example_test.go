package core_test

import (
	"context"
	"fmt"
	"time"

	"adaptivetoken/internal/core"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/tobcast"
)

// ExampleNewCluster builds a small ring, takes the distributed lock once,
// and publishes one totally ordered message.
func ExampleNewCluster() {
	cluster, err := core.NewCluster(3, core.WithTimeUnit(100*time.Microsecond))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := cluster.Mutex(1).Lock(ctx); err != nil {
		fmt.Println("error:", err)
		return
	}
	_, held := cluster.Runtime(1).TryAttachment()
	fmt.Println("node 1 holds the critical section:", held)
	if err := cluster.Mutex(1).Unlock(); err != nil {
		fmt.Println("error:", err)
		return
	}

	seq, err := cluster.Broadcaster(2).Publish(ctx, "hello")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("first broadcast got sequence:", seq)
	// Output:
	// node 1 holds the critical section: true
	// first broadcast got sequence: 1
}

// ExampleWithVariant selects the plain rotating-ring baseline instead of
// the adaptive hybrid.
func ExampleWithVariant() {
	cluster, err := core.NewCluster(3,
		core.WithVariant(protocol.RingToken),
		core.WithTimeUnit(100*time.Microsecond))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer cluster.Close()
	fmt.Println("variant:", cluster.Config().Variant)
	// Output:
	// variant: ring
}

// ExampleBroadcaster_Subscribe shows delivery callbacks: all nodes observe
// broadcasts in one agreed order.
func ExampleBroadcaster_Subscribe() {
	cluster, err := core.NewCluster(2, core.WithTimeUnit(100*time.Microsecond))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer cluster.Close()

	done := make(chan tobcast.Entry, 1)
	cluster.Broadcaster(1).Subscribe(func(e tobcast.Entry) { done <- e })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cluster.Broadcaster(0).Publish(ctx, "ping"); err != nil {
		fmt.Println("error:", err)
		return
	}
	e := <-done
	fmt.Printf("node 1 delivered #%d from node %d: %s\n", e.Seq, e.Node, e.Payload)
	// Output:
	// node 1 delivered #1 from node 0: ping
}
