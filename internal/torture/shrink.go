package torture

import "adaptivetoken/internal/faults"

// Shrink greedily minimizes a failure's fault schedule while the violation
// still reproduces — ddmin over the recorded actions. The injector keys
// every action by the global dispatch sequence number and removing an
// action never disturbs the alignment of the ones before it, so any subset
// of a recorded schedule is itself a valid deterministic scenario; the
// shrinker just keeps the subsets that still fail. The pause windows are
// dropped wholesale at the end if the failure survives without them, and
// membership (churn) events — time-keyed, so likewise independent — are
// then minimized one at a time.
func Shrink(f Failure) Failure {
	churn := f.Schedule.Churn
	pauses := f.Schedule.Pauses
	fails := func(actions []faults.Action, pauses []faults.Pause) (string, bool) {
		sched := faults.Schedule{Actions: actions, Pauses: pauses, Churn: churn}
		rep := Run(f.Scenario, &sched)
		if rep.Err != nil {
			return rep.Err.Error(), true
		}
		return "", false
	}

	actions, msg := ddminActions(f.Schedule.Actions, func(cand []faults.Action) (string, bool) {
		return fails(cand, pauses)
	})
	if msg != "" {
		f.Err = msg
	}

	if len(pauses) > 0 {
		if msg, bad := fails(actions, nil); bad {
			pauses = nil
			f.Err = msg
		}
	}

	// Churn events: greedy one-at-a-time removal (the lists are short). An
	// event that survives this pass is load-bearing — dropping it makes the
	// violation vanish.
	for i := 0; i < len(churn); {
		cand := make([]faults.ChurnEvent, 0, len(churn)-1)
		cand = append(cand, churn[:i]...)
		cand = append(cand, churn[i+1:]...)
		prev := churn
		churn = cand
		if msg, bad := fails(actions, pauses); bad {
			f.Err = msg
		} else {
			churn = prev
			i++
		}
	}

	f.Schedule = faults.Schedule{Actions: actions, Pauses: pauses, Churn: churn}
	return f
}

// ddminActions is Shrink's ddmin core: remove complement chunks while test
// still reports failure, halving granularity on progress. It returns the
// minimized actions and the last reproduced error message ("" if no
// reduction succeeded).
func ddminActions(actions []faults.Action, test func([]faults.Action) (string, bool)) ([]faults.Action, string) {
	// Fast path: the failure may not depend on the fault actions at all.
	if msg, bad := test(nil); bad {
		return nil, msg
	}
	var lastMsg string
	n := 2
	for len(actions) >= 2 && n <= len(actions) {
		chunk := (len(actions) + n - 1) / n
		reduced := false
		for start := 0; start < len(actions); start += chunk {
			end := start + chunk
			if end > len(actions) {
				end = len(actions)
			}
			cand := make([]faults.Action, 0, len(actions)-(end-start))
			cand = append(cand, actions[:start]...)
			cand = append(cand, actions[end:]...)
			if msg, bad := test(cand); bad {
				actions = cand
				lastMsg = msg
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(actions) {
				break
			}
			n *= 2
			if n > len(actions) {
				n = len(actions)
			}
		}
	}
	return actions, lastMsg
}
