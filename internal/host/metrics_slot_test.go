package host

import (
	"testing"

	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/protocol"
)

// metrics.KindSlot hardcodes the protocol's message-kind values (the
// metrics package must not import internal/protocol). This pins the two
// packages together: for every kind the host dispatches, incrementing its
// fast slot must count under exactly the string key the kind renders to.
func TestKindSlotMatchesMsgKindStrings(t *testing.T) {
	kinds := []protocol.MsgKind{
		protocol.MsgToken, protocol.MsgTokenReturn, protocol.MsgSearch,
		protocol.MsgProbe, protocol.MsgProbeReply,
		protocol.MsgWantQuery, protocol.MsgWantReply,
		protocol.MsgRecoveryProbe, protocol.MsgRecoveryReply,
	}
	for _, k := range kinds {
		m := metrics.NewMessages()
		slot := metrics.KindSlot(int(k))
		if slot < 0 {
			t.Errorf("KindSlot(%d /* %s */) = %d, want a fast slot", int(k), k, slot)
			continue
		}
		m.IncSlot(slot)
		if got := m.Snapshot(); len(got) != 1 || got[k.String()] != 1 {
			t.Errorf("IncSlot(KindSlot(%s)) counted under the wrong key: snapshot %v, want %s=1", k, got, k.String())
		}
	}
	if slot := metrics.KindSlot(9999); slot != -1 {
		t.Errorf("KindSlot(9999) = %d, want -1", slot)
	}
}
