package core

import (
	"fmt"

	"repro/internal/dataset"
)

// Canonical keyword item names for the paper's case studies.
const (
	KeywordZeroSM    = "sm_util=0%"
	KeywordZeroSMMin = "sm_util_min=0%"
	KeywordFailed    = "status=failed"
	KeywordKilled    = "status=killed"
)

// modelFamilies is the paper's aggregation of model labels into workload
// families (Sec. III-E).
var modelFamilies = map[string]string{
	"resnet": "CV", "vgg": "CV", "inception": "CV",
	"bert": "NLP", "nmt": "NLP", "xlnet": "NLP",
	"dlrm": "RecSys", "din": "RecSys", "dssm": "RecSys",
}

// PAIPipeline is the canonical configuration for the PAI trace: spike "Std"
// bins on the request columns (about half the jobs request exactly the
// default 600 cores), a zero bin on SM utilization and GPU memory used, the
// Bin0 zero bin on CPU utilization the PAI4 rule relies on, activity tiers
// for users and job groups, model-family aggregation, and T4/non-T4 GPU
// type grouping.
func PAIPipeline() *Pipeline {
	return &Pipeline{
		Features: []FeatureSpec{
			{Column: "cpu_request", SpikeThreshold: 0.3},
			{Column: "gpu_request"},
			{Column: "mem_request_gb", SpikeThreshold: 0.3},
			{Column: "queue_s"},
			{Column: "runtime_s"},
			{Column: "cpu_util", ZeroSpecial: true, ZeroLabel: "Bin0", ZeroEpsilon: 0.5},
			{Column: "sm_util", ZeroSpecial: true, ZeroEpsilon: 0.5},
			{Column: "mem_used_gb"},
			{Column: "gmem_used_gb", ZeroSpecial: true, ZeroLabel: "0GB", ZeroEpsilon: 0.05},
		},
		Tiers: []TierSpec{
			{Column: "user", Out: "user_tier"},
			{Column: "group", Out: "group_tier"},
		},
		Maps: []MapSpec{
			{Column: "model", Out: "model_class", Groups: modelFamilies, Fallback: "other"},
			{Column: "gpu_type", Groups: map[string]string{
				"t4": "T4", "p100": "NonT4", "v100": "NonT4", "none": "None",
			}},
		},
		Skip: []string{"job_id", "submit_s", "num_tasks"},
	}
}

// SuperCloudPipeline is the canonical configuration for the SuperCloud
// trace: zero bin on average SM utilization (epsilon 0.5 % so that
// burst-serving jobs with near-zero averages are captured), quartile bins on
// the telemetry-derived features including the variance columns, and user
// activity tiers.
func SuperCloudPipeline() *Pipeline {
	return &Pipeline{
		Features: []FeatureSpec{
			{Column: "cpu_util"},
			{Column: "mem_used_gb"},
			{Column: "sm_util", ZeroSpecial: true, ZeroEpsilon: 0.5},
			{Column: "sm_util_var"},
			{Column: "gmem_util"},
			{Column: "gmem_util_var"},
			{Column: "gmem_used_gb"},
			{Column: "gpu_power_w"},
			{Column: "runtime_s"},
		},
		Tiers: []TierSpec{
			{Column: "user", Out: "user_tier"},
		},
		Skip: []string{"job_id", "submit_s", "cpus", "gpus"},
	}
}

// PhillyPipeline is the canonical configuration for the Philly trace: zero
// bins on average and minimum SM utilization, GPU memory size mapped to its
// two SKU labels, and user activity tiers. The retried flag stands in for
// the paper's "Num Attempts > 1" item.
func PhillyPipeline() *Pipeline {
	return &Pipeline{
		Transforms: []Transform{phillyGPUMem},
		Features: []FeatureSpec{
			{Column: "cpu_util"},
			{Column: "mem_used_gb"},
			{Column: "sm_util", ZeroSpecial: true, ZeroEpsilon: 0.5},
			{Column: "sm_util_min", ZeroSpecial: true, ZeroEpsilon: 0.5},
			{Column: "sm_util_max"},
			{Column: "runtime_s"},
		},
		Tiers: []TierSpec{
			{Column: "user", Out: "user_tier"},
		},
		Skip: []string{"job_id", "submit_s", "gpus", "num_attempts", "gpu_mem_gb"},
	}
}

// phillyGPUMem renders the two GPU SKUs as categorical labels.
func phillyGPUMem(f *dataset.Frame) (*dataset.Frame, error) {
	col, err := f.Column("gpu_mem_gb")
	if err != nil {
		return nil, err
	}
	labels := make([]string, col.Len())
	for i := range labels {
		labels[i] = fmt.Sprintf("%dGB", col.Int(i))
	}
	return f.WithColumn(dataset.NewString("gpu_mem", labels).WithValidity(nil))
}
