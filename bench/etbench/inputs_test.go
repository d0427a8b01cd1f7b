package main

import (
	"reflect"
	"testing"
)

func TestInputsFollowTheSeed(t *testing.T) {
	a, b := genInputs(defaultSeed), genInputs(defaultSeed)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	c := genInputs(acceptanceSeed)
	for name, differ := range map[string]bool{
		"campaign seeds": !reflect.DeepEqual(a.CampaignSeeds, c.CampaignSeeds),
		"subset seeds":   !reflect.DeepEqual(a.SubsetSeeds, c.SubsetSeeds),
		"job mix":        !reflect.DeepEqual(a.Jobs, c.Jobs),
		"queries":        !reflect.DeepEqual(a.Queries, c.Queries),
	} {
		if !differ {
			t.Errorf("%s are the same for seeds %d and %d", name, defaultSeed, acceptanceSeed)
		}
	}
}

func TestJobMix(t *testing.T) {
	in := genInputs(defaultSeed)
	mcSeeds := map[uint64]bool{}
	for _, j := range in.Jobs {
		if j.MC {
			mcSeeds[j.MCSeed] = true
		} else if j.Variant < 0 || j.Variant >= len(jobVariants) {
			t.Fatalf("job variant %d out of range", j.Variant)
		}
	}
	for b := 0; b < len(in.Jobs); b += mcJobEvery {
		n := 0
		for _, j := range in.Jobs[b : b+mcJobEvery] {
			if j.MC {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("jobs %d..%d hold %d Monte Carlo jobs, want 1", b, b+mcJobEvery-1, n)
		}
	}
	if len(mcSeeds) != 2 {
		t.Errorf("Monte Carlo jobs use %d seeds, want 2", len(mcSeeds))
	}
	for _, q := range in.Queries {
		if q.Quantiles[0] <= 0 || q.Quantiles[2] >= 1 || q.DeltaFrac <= 0 || q.DeltaFrac >= 1 {
			t.Fatalf("query %+v outside (0, 1)", q)
		}
	}
}
