package scenario

import (
	"context"
	"fmt"
	"testing"
)

// TestV1PrecondICTAliasesIC0 pins the v1 alias: "precond": "ict" validates
// and runs exactly as "ic0" (MIC0 on the thermal operator, IC(0) on the
// electric one), for a nominal and a Monte Carlo scenario, down to the
// bytes of every scenario result.
func TestV1PrecondICTAliasesIC0(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field batch is seconds-scale")
	}
	const doc = `{"scenarios": [
		{"name": "nominal", "chip": {"hmax_m": 0.0008},
		 "sim": {"end_time_s": 10, "num_steps": 3, "coupling": "weak", "nonlinear": "newton", "precond": %[1]q}},
		{"name": "mc", "chip": {"hmax_m": 0.0008},
		 "sim": {"end_time_s": 10, "num_steps": 3, "coupling": "weak", "nonlinear": "newton", "precond": %[1]q},
		 "uq": {"method": "monte-carlo", "samples": 4, "seed": 11}}
	]}`
	run := func(precond string) string {
		b, err := ParseBatch([]byte(fmt.Sprintf(doc, precond)))
		if err != nil {
			t.Fatalf("precond %q: %v", precond, err)
		}
		res, err := NewEngine().Run(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedCount != 0 {
			t.Fatalf("precond %q: batch had failures: %+v", precond, res.Failed())
		}
		return summaryJSON(t, res)
	}
	if ict, ic0 := run("ict"), run("ic0"); ict != ic0 {
		t.Errorf("precond ict and ic0 gave different results:\nict: %s\nic0: %s", ict, ic0)
	}
}
