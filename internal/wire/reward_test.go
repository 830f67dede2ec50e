package wire

import (
	"math"
	"testing"

	"multihopbandit/internal/serve"
)

// TestWireObserveRejectsPoisonRewards pins the reward-domain check on the
// binary plane, which carries raw float64 bits, so NaN and ±Inf arrive
// intact: every value outside the paper's domain (finite, ≥ 0) is answered
// with invalid_request, nothing of the request applies, and the instance
// keeps deciding.
func TestWireObserveRejectsPoisonRewards(t *testing.T) {
	poison := []struct {
		name  string
		value float64
	}{
		{"negative", -5},
		{"huge-negative", -1e308},
		{"neg-inf", math.Inf(-1)},
		{"nan", math.NaN()},
		{"pos-inf", math.Inf(1)},
	}
	reg, _, addr := startServer(t, 1)
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range poison {
		t.Run(tc.name, func(t *testing.T) {
			id, p := tc.name, tc.value
			if _, err := c.Create(serve.InstanceConfig{ID: id, Spec: gaussSpec(10, 2, 1)}); err != nil {
				t.Fatal(err)
			}
			as, err := c.Assignment(id)
			if err != nil {
				t.Fatal(err)
			}
			good := make([]float64, len(as.Winners))
			bad := make([]float64, len(as.Winners))
			for j := range good {
				good[j], bad[j] = 0.5, 0.5
			}
			bad[len(bad)-1] = p
			req := []serve.ObservationBatch{
				{Played: as.Winners, Rewards: good},
				{Played: as.Winners, Rewards: bad},
			}
			if _, err := c.Observe(id, req); serve.ErrorCode(err) != serve.CodeInvalidRequest {
				t.Fatalf("reward %v: %v (code %q), want %q", p, err, serve.ErrorCode(err), serve.CodeInvalidRequest)
			}
			h, ok := reg.Get(id)
			if !ok {
				t.Fatalf("instance %s vanished", id)
			}
			info, err := h.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Slot != 0 || info.Observations != 0 {
				t.Fatalf("reward %v: rejected request moved the instance: %+v", p, info)
			}
			if res, err := c.Observe(id, req[:1]); err != nil || res.Slot != 1 {
				t.Fatalf("reward %v: valid observe after rejection: %+v, %v", p, res, err)
			}
			st, err := c.Step(id, 4)
			if err != nil {
				t.Fatalf("reward %v: step after rejection: %v", p, err)
			}
			if st.Decisions == 0 || len(st.Assignment.Winners) == 0 {
				t.Fatalf("reward %v: instance stopped deciding: %+v", p, st)
			}
		})
	}
}
