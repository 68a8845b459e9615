// Quickstart: a five-node in-process ring running the adaptive
// binary-search token protocol. Each node takes the distributed lock once
// and publishes one totally ordered message; every node delivers the same
// sequence.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"time"

	"adaptivetoken/internal/core"
	"adaptivetoken/internal/tobcast"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 5
	cluster, err := core.NewCluster(n, core.WithTimeUnit(time.Millisecond))
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Watch deliveries at node 0.
	cluster.Broadcaster(0).Subscribe(func(e tobcast.Entry) {
		fmt.Printf("node 0 delivered #%d from node %d: %q\n", e.Seq, e.Node, e.Payload)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < n; i++ {
		// The distributed lock: token possession is the critical
		// section right.
		start := time.Now()
		if err := cluster.Mutex(i).Lock(ctx); err != nil {
			return fmt.Errorf("node %d lock: %w", i, err)
		}
		fmt.Printf("node %d entered its critical section after %v\n",
			i, time.Since(start).Round(time.Millisecond))
		if err := cluster.Mutex(i).Unlock(); err != nil {
			return err
		}

		// Totally ordered broadcast: sequence numbers are assigned
		// under token possession, so all nodes agree on the order.
		seq, err := cluster.Broadcaster(i).Publish(ctx, fmt.Sprintf("greetings from %d", i))
		if err != nil {
			return fmt.Errorf("node %d publish: %w", i, err)
		}
		fmt.Printf("node %d published message #%d\n", i, seq)
	}

	// Wait for every node to deliver everything, then compare logs.
	if err := cluster.WaitDelivered(ctx, n); err != nil {
		return err
	}
	ref := cluster.Broadcaster(0).Log()
	for i := 1; i < n; i++ {
		if !slices.Equal(ref, cluster.Broadcaster(i).Log()) {
			return fmt.Errorf("node %d delivered a different order", i)
		}
	}
	fmt.Printf("all %d nodes delivered the same %d messages in the same order\n", n, len(ref))
	return nil
}
