package conformance

import (
	"reflect"
	"testing"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/spec"
)

// stablePin is the one stable-epoch test and snapshot-to-pin conversion of
// churn conformance, for simulated and live clusters alike. Each snapshot
// below is the valid one with a single fact changed.
func TestStablePin(t *testing.T) {
	// Members 1, 3, 4 of a 5-slot cluster; node 3 holds the freshest stamp,
	// node 1 traps for node 4 and for departed node 2.
	valid := func() driver.ChurnSnapshot {
		s := driver.ChurnSnapshot{
			Members: []int{1, 3, 4},
			Nodes:   make([]driver.ChurnNodeState, 5),
		}
		s.Nodes[1] = driver.ChurnNodeState{Member: true, LastSeen: 5, Traps: []int{4, 2}}
		s.Nodes[3] = driver.ChurnNodeState{Member: true, LastSeen: 7, HasToken: true}
		s.Nodes[4] = driver.ChurnNodeState{Member: true, LastSeen: 6}
		return s
	}
	cases := []struct {
		name   string
		edit   func(*driver.ChurnSnapshot)
		unsent int
		ok     bool
	}{
		{name: "valid", ok: true},
		{name: "no snapshot", edit: func(s *driver.ChurnSnapshot) { *s = driver.ChurnSnapshot{} }},
		{name: "stale holder stamp", edit: func(s *driver.ChurnSnapshot) { s.Nodes[4].LastSeen = 8 }},
		{name: "two holders", edit: func(s *driver.ChurnSnapshot) { s.Nodes[1].HasToken = true }},
		{name: "no holder", edit: func(s *driver.ChurnSnapshot) { s.Nodes[3].HasToken = false }},
		{name: "pending holder", edit: func(s *driver.ChurnSnapshot) { s.Nodes[3].Pending = true }},
		{name: "held work", edit: func(s *driver.ChurnSnapshot) { s.HeldWork = true }},
		{name: "in flight", edit: func(s *driver.ChurnSnapshot) { s.InFlight = 1 }},
		{name: "unsent", unsent: 1},
		{name: "holder in CS", edit: func(s *driver.ChurnSnapshot) { s.Nodes[3].InCS = true }},
		{name: "decorated", edit: func(s *driver.ChurnSnapshot) { s.Nodes[3].Decorated = true }},
		{name: "recovering", edit: func(s *driver.ChurnSnapshot) { s.Nodes[1].Recovering = true }},
		{name: "dead member", edit: func(s *driver.ChurnSnapshot) { s.Nodes[4].Dead = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			if tc.edit != nil {
				tc.edit(&s)
			}
			members, base, pin, ok := stablePin(s, tc.unsent)
			if ok != tc.ok {
				t.Fatalf("stablePin ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				return
			}
			want := spec.Pin{
				N:         3,
				Holder:    1, // node 3 at position 1
				TokenCirc: 2, // stamp 7 over base 5
				NodeCirc:  []int{0, 2, 1},
				Ready:     []bool{false, false, false},
				Traps:     [][2]int{{0, 2}}, // node 1 traps for node 4; node 2 has left
			}
			if !reflect.DeepEqual(members, []int{1, 3, 4}) || base != 5 || !reflect.DeepEqual(pin, want) {
				t.Fatalf("stablePin = %v, %d, %+v; want [1 3 4], 5, %+v", members, base, pin, want)
			}
			if err := pin.Validate(); err != nil {
				t.Fatalf("pin does not validate: %v", err)
			}
		})
	}
}
