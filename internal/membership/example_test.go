package membership_test

import (
	"fmt"

	"adaptivetoken/internal/membership"
)

// ExampleView shows a ring view changing by one leave and one join, each
// bumping the epoch.
func ExampleView() {
	v := membership.NewView(0, []int{10, 20, 30, 40, 50, 60, 70, 80})
	v2 := v.WithLeft(40).WithJoined(45)
	fmt.Println("after leave(40)+join(45):", v2.Members, "epoch", v2.Epoch)
	// Output:
	// after leave(40)+join(45): [10 20 30 45 50 60 70 80] epoch 2
}

// ExampleTracker folds a totally ordered change stream into a view; every
// node applying the same stream converges to the same view.
func ExampleTracker() {
	tr := membership.NewTracker(membership.NewView(0, []int{0, 1, 2}))
	tr.Apply(membership.Change{Kind: membership.Join, Node: 7})
	tr.Apply(membership.Change{Kind: membership.Leave, Node: 1})
	fmt.Println(tr.View())
	// Output:
	// view{epoch=2 members=[0 2 7]}
}
