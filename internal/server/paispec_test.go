package server

import (
	"reflect"
	"testing"
)

// paiSpecLiteral is the hand-written PAI spec PAISpec replaced by a
// derivation from core.PAIPipeline; the derivation must reproduce it.
func paiSpecLiteral() Spec {
	return Spec{
		Numeric: []NumericSpec{
			{Field: "cpu_request", SpikeThreshold: 0.3},
			{Field: "gpu_request"},
			{Field: "mem_request_gb", SpikeThreshold: 0.3},
			{Field: "queue_s"},
			{Field: "runtime_s"},
			{Field: "cpu_util", ZeroSpecial: true, ZeroLabel: "Bin0", ZeroEpsilon: 0.5},
			{Field: "sm_util", ZeroSpecial: true, ZeroEpsilon: 0.5},
			{Field: "mem_used_gb"},
			{Field: "gmem_used_gb", ZeroSpecial: true, ZeroLabel: "0GB", ZeroEpsilon: 0.05},
		},
		Tiers: []TierSpec{
			{Field: "user", Out: "user_tier"},
			{Field: "group", Out: "group_tier"},
		},
		Maps: []MapSpec{
			{Field: "model", Out: "model_class", Groups: map[string]string{
				"resnet": "CV", "vgg": "CV", "inception": "CV",
				"bert": "NLP", "nmt": "NLP", "xlnet": "NLP",
				"dlrm": "RecSys", "din": "RecSys", "dssm": "RecSys",
			}, Fallback: "other"},
			{Field: "gpu_type", Groups: map[string]string{
				"t4": "T4", "p100": "NonT4", "v100": "NonT4", "none": "None",
			}},
		},
		Bools: []string{"multi_task"},
		Skip:  []string{"job_id", "submit_s", "num_tasks"},
	}
}

func TestPAISpecDerivedFromPipeline(t *testing.T) {
	got, want := PAISpec(), paiSpecLiteral()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PAISpec() = %+v\nwant %+v", got, want)
	}
	// Each call owns its maps: a caller editing one spec's groups must not
	// reach the batch pipeline's or another spec's.
	got.Maps[0].Groups["resnet"] = "edited"
	if PAISpec().Maps[0].Groups["resnet"] != "CV" {
		t.Fatal("PAISpec shares its model-family map across calls")
	}
}
