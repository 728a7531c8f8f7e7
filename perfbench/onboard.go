package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/boot"
	"repro/internal/registry"
)

// onboardSeed is the generated schema the traced run onboards. It does
// not depend on --seed, so every run onboards the same tenant.
const onboardSeed = 101

// onboardPoll is how often the onboarding status is polled.
const onboardPoll = 5 * time.Millisecond

// onboarding is one tenant's onboarding as seen through the admin API.
type onboarding struct {
	Schema string
	// TotalS runs from POST /schemas until the status reads ready.
	TotalS float64
	// GenerateS and EvalS are the time the status spent in the
	// generating and evaluating states (to poll resolution).
	GenerateS, EvalS float64
}

// onboard posts one synth:<seed> tenant with the instant-start nn
// model, polls its status until it is ready, then deletes it so the
// tenant does not stay in memory.
func (c *client) onboard(ctx context.Context, seed int64) (onboarding, error) {
	schema := fmt.Sprintf("%s%d", boot.SynthPrefix, seed)
	name := boot.TenantName(schema)
	ob := onboarding{Schema: schema}
	body := fmt.Sprintf(`{"schema":%q,"model":"nn"}`, schema)
	start := now()
	status, data, err := c.do(ctx, http.MethodPost, "/schemas", strings.NewReader(body))
	if err != nil {
		return ob, err
	}
	if status != http.StatusAccepted {
		return ob, fmt.Errorf("onboard %s: status %d: %s", schema, status, data)
	}
	entered := map[registry.State]time.Time{}
	for {
		var st registry.Status
		if err := c.getJSON(ctx, "/schemas/"+name, &st); err != nil {
			return ob, err
		}
		t := now()
		if _, seen := entered[st.State]; !seen {
			entered[st.State] = t
		}
		if st.State == registry.StateReady && !st.Onboarding {
			ob.TotalS = t.Sub(start).Seconds()
			break
		}
		if st.State == registry.StateFailed || st.State == registry.StateRolledBack {
			return ob, fmt.Errorf("onboard %s: %s: %s", schema, st.State, st.Error)
		}
		if err := sleepUntil(ctx, t.Add(onboardPoll)); err != nil {
			return ob, err
		}
	}
	ob.GenerateS = stateSpan(entered, registry.StateGenerating, registry.StateTraining)
	ob.EvalS = stateSpan(entered, registry.StateEvaluating, registry.StateReady)
	status, data, err = c.do(ctx, http.MethodDelete, "/schemas/"+name, nil)
	if err != nil {
		return ob, err
	}
	if status != http.StatusNoContent {
		return ob, fmt.Errorf("delete %s: status %d: %s", name, status, data)
	}
	return ob, nil
}

// stateSpan is the time between first seeing from and first seeing to
// (0 when either was never observed).
func stateSpan(entered map[registry.State]time.Time, from, to registry.State) float64 {
	a, okA := entered[from]
	b, okB := entered[to]
	if !okA || !okB {
		return 0
	}
	return b.Sub(a).Seconds()
}
