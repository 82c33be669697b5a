package main

// metricDef names one reported metric. The tables below are the single
// source of the metric set: BENCHMARK.json lists the same names, units and
// directions (pinned by TestMetricTablesMatchBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is printed by every untraced run, on every workload. Time is
// real wall-clock; each latency is a per-class mean, summed over the
// workload's size classes (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_mean_s", "s", "lower"},
	{"points_per_s", "points/s", "higher"},
	{"heap_retained_bytes", "bytes", "lower"},
}

// perLayer is printed by every traced run, on every workload. A layer the
// workload does not pass through reads 0. Units "sim_s" are gpusim-modeled
// seconds, never wall-clock.
var perLayer = []metricDef{
	{"field.bn254_mul_ns", "ns", "lower"},
	{"field.bls12381_mul_ns", "ns", "lower"},
	{"field.bn254_inv_ns", "ns", "lower"},
	{"curve.bn254_pacc_ns", "ns", "lower"},
	{"curve.bls12381_pacc_ns", "ns", "lower"},
	{"curve.bn254_scalar_mul_us", "us", "lower"},
	{"curve.sample_points_ns", "ns", "lower"},
	{"core.bn254_msm_s", "s", "lower"},
	{"core.bls12381_msm_s", "s", "lower"},
	{"core.self_s", "s", "lower"},
	{"core.msm_alloc_bytes", "bytes", "lower"},
	{"core.scatter_s", "s", "lower"},
	{"core.bucket_sum_wall_s", "s", "lower"},
	{"core.bucket_reduce_s", "s", "lower"},
	{"core.window_reduce_s", "s", "lower"},
	{"core.pacc_ops", "count", "lower"},
	{"core.gpu_load_imbalance", "ratio", "lower"},
	{"gpusim.scatter_s", "sim_s", "lower"},
	{"gpusim.bucket_sum_s", "sim_s", "lower"},
	{"gpusim.bucket_reduce_s", "sim_s", "lower"},
	{"gpusim.window_reduce_s", "sim_s", "lower"},
	{"gpusim.transfer_s", "sim_s", "lower"},
	{"gpusim.total_s", "sim_s", "lower"},
	{"pairing.fp2_mul_ns", "ns", "lower"},
	{"pairing.g2_msm_s", "s", "lower"},
	{"pairing.g2_msm_alloc_bytes", "bytes", "lower"},
	{"pairing.g2_precomputed_msm_s", "s", "lower"},
	{"ntt.coset_forward_s", "s", "lower"},
	{"groth16.setup_s", "s", "lower"},
	{"groth16.pre_msm_s", "s", "lower"},
	{"groth16.msm_a_s", "s", "lower"},
	{"groth16.msm_b1_s", "s", "lower"},
	{"groth16.msm_k_s", "s", "lower"},
	{"groth16.msm_z_s", "s", "lower"},
	{"groth16.msm_b2_s", "s", "lower"},
	{"groth16.self_s", "s", "lower"},
	{"service.register_s", "s", "lower"},
	{"service.queue_wait_p50_s", "s", "lower"},
	{"service.prove_p50_s", "s", "lower"},
	{"service.prove_p90_s", "s", "lower"},
	{"service.job_p90_s", "s", "lower"},
	{"service.base_cache_bytes", "bytes", "lower"},
	{"service.coalesced", "count", "higher"},
	{"service.arrival_late_max_s", "s", "lower"},
	{"cluster.dispatch_msm_p50_s", "s", "lower"},
	{"cluster.dispatches_per_msm", "count", "lower"},
	{"cluster.request_bytes_per_msm", "bytes", "lower"},
	{"cluster.redispatches", "count", "lower"},
	{"cluster.self_s", "s", "lower"},
	{"outsource.new_check_s", "s", "lower"},
	{"outsource.verify_us", "us", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"trace.latency_mean_s", "s", "lower"},
}
