//! The cold inversion path called one stage at a time, in the order
//! `Request::invert` runs it (`ingest_input` → `run_partition_job` →
//! `lu_decompose_mr` → `invert_factors_mr`), with a span around each call
//! and the program's own counters read around each stage.

use mrinv::inverse::run_fingerprint;
use mrinv::lu_mr::{lu_decompose_mr, BlockView};
use mrinv::partition::{ingest_input, run_partition_job, PartitionPlan};
use mrinv::tri_inv_mr::invert_factors_mr;
use mrinv::InversionConfig;
use mrinv_mapreduce::{Cluster, JobReport, PipelineDriver, RunId};
use mrinv_matrix::kernel::perf;
use mrinv_matrix::Matrix;

use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Tracer;

/// Span names of the pipeline stages (also used to aggregate them).
pub const INGEST: &str = "partition.ingest_input";
pub const PARTITION_JOB: &str = "partition.run_partition_job";
pub const LU: &str = "lu_mr.lu_decompose_mr";
pub const TRI_INV: &str = "tri_inv_mr.invert_factors_mr";
pub const FINISH: &str = "driver.finish";
pub const RESIDUAL: &str = "norms.inversion_residual";

/// Counters of one traced inversion.
#[derive(Debug, Clone, Default)]
pub struct StageCounts {
    pub op: u64,
    pub n: usize,
    pub jobs: u64,
    pub lu_jobs: u64,
    pub lu_cpu: f64,
    pub lu_kernel: f64,
    pub tri_cpu: f64,
    pub tri_kernel: f64,
    pub task_cpu: f64,
    pub task_kernel: f64,
    pub task_attempts: u64,
    pub failed_attempts: u64,
    pub dfs_read: u64,
    pub dfs_write: u64,
    pub gemm_calls: u64,
    pub gemm_flops: u64,
    pub gemm_secs: f64,
    pub pack_secs: f64,
}

fn cpu(reports: &[JobReport]) -> (f64, f64) {
    reports.iter().fold((0.0, 0.0), |(c, k), r| {
        (
            c + r.stats.cpu.as_secs_f64() + r.lost_stats.cpu.as_secs_f64(),
            k + r.stats.kernel.as_secs_f64() + r.lost_stats.kernel.as_secs_f64(),
        )
    })
}

/// Inverts `a` on `cluster` stage by stage under `parent`, with the kernel
/// perf counters on for the pipeline stages only.
pub fn traced_invert(
    cluster: &Cluster,
    a: &Matrix,
    nb: usize,
    run: &RunId,
    tracer: &Tracer,
    op: u64,
    parent: u32,
) -> mrinv::Result<(Matrix, StageCounts)> {
    let n = a.order()?;
    let cfg = InversionConfig::with_nb(nb);
    let plan = PartitionPlan::new(n, cluster, &cfg, run.dir());
    let dfs_before = cluster.dfs.counters();
    perf::reset();
    perf::set_enabled(true);
    let span = |name, f: &mut dyn FnMut() -> mrinv::Result<()>| {
        tracer.span(op, Some(parent), name, |_| f())
    };

    span(INGEST, &mut || ingest_input(cluster, a, &plan))?;
    let mut driver = PipelineDriver::new(cluster, run.clone());
    driver.set_config_fingerprint(run_fingerprint(&plan, &cfg.opts));
    let mut tree = None;
    span(PARTITION_JOB, &mut || {
        tree = Some(run_partition_job(&mut driver, &plan)?.0);
        Ok(())
    })?;
    let after_partition = driver.reports().len();
    let mut factors = None;
    span(LU, &mut || {
        let view = BlockView::Tree(tree.take().expect("partitioned"));
        factors = Some(lu_decompose_mr(&mut driver, view, &plan, &cfg.opts)?);
        Ok(())
    })?;
    let after_lu = driver.reports().len();
    let factors = factors.expect("decomposed");
    let mut inverse = None;
    span(TRI_INV, &mut || {
        inverse = Some(invert_factors_mr(&mut driver, &factors, &plan, &cfg.opts)?);
        Ok(())
    })?;
    let report = tracer.span(op, Some(parent), FINISH, |_| driver.finish(n, nb));
    perf::set_enabled(false);

    let reports = driver.reports();
    let (lu_cpu, lu_kernel) = cpu(&reports[after_partition..after_lu]);
    let (tri_cpu, tri_kernel) = cpu(&reports[after_lu..]);
    let (task_cpu, task_kernel) = cpu(reports);
    let dfs = cluster.dfs.counters();
    let kernels = perf::snapshot();
    let counts = StageCounts {
        op,
        n,
        jobs: report.jobs,
        lu_jobs: (after_lu - after_partition) as u64,
        lu_cpu,
        lu_kernel,
        tri_cpu,
        tri_kernel,
        task_cpu,
        task_kernel,
        task_attempts: reports
            .iter()
            .map(|r| (r.map_tasks + r.reduce_tasks) as u64 + r.failures as u64)
            .sum(),
        failed_attempts: reports.iter().map(|r| r.failures as u64).sum(),
        dfs_read: dfs.bytes_read - dfs_before.bytes_read,
        dfs_write: dfs.bytes_written - dfs_before.bytes_written,
        gemm_calls: kernels.iter().map(|k| k.calls).sum(),
        gemm_flops: kernels.iter().map(|k| k.flops).sum(),
        gemm_secs: kernels.iter().map(|k| k.secs).sum(),
        pack_secs: kernels.iter().map(|k| k.pack_secs).sum(),
    };
    Ok((inverse.expect("inverted"), counts))
}

/// Records the pipeline-layer metrics as medians over traced inversions.
pub fn record(values: &mut Values, tracer: &Tracer, runs: &[StageCounts]) {
    let med = |f: &dyn Fn(&StageCounts) -> f64| {
        median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let op_secs = |c: &StageCounts, names: &[&str]| -> f64 {
        tracer
            .spans()
            .iter()
            .filter(|s| s.op == c.op && names.contains(&s.name))
            .map(|s| s.secs())
            .sum()
    };
    let threads = rayon::current_num_threads() as f64;
    values.set(
        "partition.s",
        med(&|c| op_secs(c, &[INGEST, PARTITION_JOB])),
    );
    values.set("lu_mr.s", med(&|c| op_secs(c, &[LU])));
    values.set("lu_mr.jobs", med(&|c| c.lu_jobs as f64));
    values.set("lu_mr.task_cpu_s", med(&|c| c.lu_cpu));
    values.set("lu_mr.kernel_cpu_s", med(&|c| c.lu_kernel));
    values.set("tri_inv_mr.s", med(&|c| op_secs(c, &[TRI_INV])));
    values.set("tri_inv_mr.task_cpu_s", med(&|c| c.tri_cpu));
    values.set("tri_inv_mr.kernel_cpu_s", med(&|c| c.tri_kernel));
    values.set("runner.task_attempts", med(&|c| c.task_attempts as f64));
    values.set("runner.failed_attempts", med(&|c| c.failed_attempts as f64));
    values.set(
        "runner.nonkernel_cpu_s",
        med(&|c| c.task_cpu - c.task_kernel),
    );
    values.set(
        "runner.outside_tasks_s",
        med(&|c| op_secs(c, &[PARTITION_JOB, LU, TRI_INV]) - c.task_cpu / threads),
    );
    values.set("dfs.read_bytes", med(&|c| c.dfs_read as f64));
    values.set("dfs.write_bytes", med(&|c| c.dfs_write as f64));
    values.set(
        "dfs.read_per_input",
        med(&|c| c.dfs_read as f64 / (8.0 * (c.n * c.n) as f64)),
    );
    values.set("kernel.gemm_calls", med(&|c| c.gemm_calls as f64));
    values.set("kernel.gemm_flops", med(&|c| c.gemm_flops as f64));
    values.set("kernel.gemm_s", med(&|c| c.gemm_secs));
    values.set(
        "kernel.gemm_gflops",
        med(&|c| c.gemm_flops as f64 / c.gemm_secs / 1e9),
    );
    values.set("kernel.pack_s", med(&|c| c.pack_secs));
    values.set(
        "norms.residual_s",
        median(&tracer.per_op(&[RESIDUAL])).unwrap_or(f64::NAN),
    );
}
