package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

// poisonRewards are rewards outside the paper's domain (finite, ≥ 0). Each
// once made every later decide of the instance fail, or pinned an estimate
// at +Inf. jsonToken is the closest a JSON body can come to the value:
// NaN is not JSON at all, and ±1e309 overflow float64 on decode.
var poisonRewards = []struct {
	name      string
	value     float64
	jsonToken string
}{
	{"negative", -5, "-5"},
	{"huge-negative", -1e308, "-1e308"},
	{"neg-inf", math.Inf(-1), "-1e309"},
	{"nan", math.NaN(), "NaN"},
	{"pos-inf", math.Inf(1), "1e309"},
}

// poisonedRequest is a two-batch observe request for the current strategy
// whose second batch carries the poison as its last reward, so accepting
// the valid first batch alone would be a partial apply.
func poisonedRequest(winners []int, poison float64) []ObservationBatch {
	good := make([]float64, len(winners))
	bad := make([]float64, len(winners))
	for i := range good {
		good[i], bad[i] = 0.5, 0.5
	}
	bad[len(bad)-1] = poison
	return []ObservationBatch{
		{Played: winners, Rewards: good},
		{Played: winners, Rewards: bad},
	}
}

// checkStillDecides asserts a rejected request left the instance at slot
// 0 with nothing observed, and that it still accepts valid observations
// and keeps deciding.
func checkStillDecides(t *testing.T, h *Instance, winners []int) {
	t.Helper()
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Slot != 0 || info.Observations != 0 {
		t.Fatalf("rejected request moved the instance: %+v", info)
	}
	good := poisonedRequest(winners, 0.25)[:1]
	if res, err := h.Observe(good); err != nil || res.Slot != 1 {
		t.Fatalf("valid observe after rejection: %+v, %v", res, err)
	}
	st, err := h.Step(4)
	if err != nil {
		t.Fatalf("step after rejection: %v", err)
	}
	if st.Decisions == 0 || len(st.Assignment.Winners) == 0 {
		t.Fatalf("instance stopped deciding after rejection: %+v", st)
	}
}

// TestObserveRejectsPoisonRewards pins the reward-domain check on the Go
// API: every poison value rejects the whole request.
func TestObserveRejectsPoisonRewards(t *testing.T) {
	for _, p := range poisonRewards {
		t.Run(p.name, func(t *testing.T) {
			reg := NewRegistry(RegistryConfig{})
			defer reg.Close()
			h, err := reg.Create(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			as, err := h.Assignment()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Observe(poisonedRequest(as.Winners, p.value)); err == nil {
				t.Fatalf("reward %v accepted", p.value)
			}
			checkStillDecides(t, h, as.Winners)
		})
	}
}

// TestHTTPObserveRejectsPoisonRewards pins the same check on the JSON
// plane: the request is answered 400 invalid_request and nothing applies.
func TestHTTPObserveRejectsPoisonRewards(t *testing.T) {
	for _, p := range poisonRewards {
		t.Run(p.name, func(t *testing.T) {
			ts, c, reg := newTestServer(t)
			if _, err := c.Create(InstanceConfig{ID: "p", Spec: gaussSpec(8, 2, 1)}); err != nil {
				t.Fatal(err)
			}
			as, err := c.Assignment("p")
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(map[string]any{"batches": poisonedRequest(as.Winners, 0.5)})
			if err != nil {
				t.Fatal(err)
			}
			// Splice the poison token over the second batch's last reward
			// (json.Marshal cannot encode NaN or ±Inf).
			raw := string(body)
			cut := strings.LastIndex(raw, "0.5")
			raw = raw[:cut] + p.jsonToken + raw[cut+len("0.5"):]
			resp, err := http.Post(ts.URL+"/v1/instances/p/observations", "application/json", strings.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var ae APIError
			if err := json.Unmarshal(msg, &ae); err != nil {
				t.Fatalf("error body %q: %v", msg, err)
			}
			if resp.StatusCode != http.StatusBadRequest || ae.Code != CodeInvalidRequest {
				t.Fatalf("reward %s: status %d code %q (%s), want 400 %q",
					p.jsonToken, resp.StatusCode, ae.Code, ae.Message, CodeInvalidRequest)
			}
			h, ok := reg.Get("p")
			if !ok {
				t.Fatal("instance vanished")
			}
			checkStillDecides(t, h, as.Winners)
		})
	}
}
