//! `repro verify` — the one-command structural regression check: runs
//! every `vit-verify` pass over every built-in model at multiple input
//! sizes, plus the engine LUTs the serving stack is built on.

use crate::Table;
use vit_accel::AccelConfig;
use vit_drt::{DrtEngine, EngineFamily};
use vit_graph::Graph;
use vit_graph::WeightGen;
use vit_models::{
    bert_base, build_bert, build_deformable_detr, build_detr, build_resnet, build_segformer,
    build_swin_upernet, build_vit, ofa_family, DetrConfig, ResNetConfig, SegFormerConfig,
    SegFormerVariant, SwinConfig, SwinVariant, VitConfig,
};
use vit_plan::ExecPlan;
use vit_resilience::{swin_sweep_space, AccelResource, ResourceKind, Workload};
use vit_serve::SchedulePolicy;
use vit_verify::{
    audit_sources, exec_safety_summary, verify_exec_safety, verify_lut_report,
    verify_model_on_accelerators, verify_plan, LutContext, Report, VerifyOptions,
};

/// Settings parsed from the `repro verify` command line.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyArgs {
    /// Emit machine-readable JSON instead of tables.
    pub json: bool,
    /// Treat warnings as failures (CI mode).
    pub deny_warnings: bool,
    /// Print the per-artifact exec-safety detail table (what pass 6
    /// proved: chunk counts, liveness decisions, reassociating records).
    pub exec_safety: bool,
}

/// Maps aggregated finding counts to the process exit code — the
/// contract `repro verify` keeps with CI: non-zero on any error, and on
/// any warning under `--deny-warnings`.
pub fn exit_code(errors: usize, warnings: usize, deny_warnings: bool) -> i32 {
    i32::from(errors > 0 || (deny_warnings && warnings > 0))
}

/// The accelerator configurations every graph is checked against.
fn accels() -> Vec<(&'static str, AccelConfig)> {
    vec![
        ("accelerator_A", AccelConfig::accelerator_a()),
        ("accelerator*", AccelConfig::accelerator_star()),
    ]
}

/// Every built-in model graph the verifier covers, across input sizes.
fn model_graphs() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = Vec::new();
    let mut push = |label: String, g: Result<Graph, vit_models::ModelError>| match g {
        Ok(g) => out.push((label, g)),
        Err(e) => panic!("building {label} failed: {e}"),
    };

    for variant in [
        SegFormerVariant::b0(),
        SegFormerVariant::b1(),
        SegFormerVariant::b2(),
    ] {
        for (h, w) in [(64, 64), (128, 128), (512, 512)] {
            let name = variant.name;
            push(
                format!("{name} ade20k {h}x{w}"),
                build_segformer(&SegFormerConfig::ade20k(variant).with_image(h, w)),
            );
        }
    }
    for variant in [
        SwinVariant::tiny(),
        SwinVariant::small(),
        SwinVariant::base(),
    ] {
        for (h, w) in [(64, 64), (256, 256)] {
            let name = variant.name;
            push(
                format!("{name} ade20k {h}x{w}"),
                build_swin_upernet(&SwinConfig::ade20k(variant).with_image(h, w)),
            );
        }
    }
    for (h, w) in [(160, 224), (480, 640)] {
        push(
            format!("detr coco {h}x{w}"),
            build_detr(&DetrConfig::detr_coco().with_image(h, w)),
        );
        push(
            format!("deformable-detr coco {h}x{w}"),
            build_deformable_detr(&DetrConfig::deformable_coco().with_image(h, w)),
        );
    }
    push(
        "vit-b16 imagenet 224x224".to_string(),
        build_vit(&VitConfig::base16()),
    );
    push(
        "bert-base seq128".to_string(),
        build_bert(&bert_base(), 128, 1),
    );
    push(
        "resnet50 imagenet 224x224".to_string(),
        build_resnet(&ResNetConfig::imagenet()).map(|r| r.graph),
    );
    push(
        "resnet50-backbone coco".to_string(),
        build_resnet(&ResNetConfig::coco_backbone()).map(|r| r.graph),
    );
    for subnet in ofa_family() {
        push(
            format!("ofa {} 224x224", subnet.label),
            subnet.build_classifier((224, 224), 1).map(|r| r.graph),
        );
    }
    out
}

/// The engine LUTs the serving stack ships with, each paired with the
/// deployment context the LUT pass checks it against.
fn engine_luts() -> Vec<(String, vit_drt::Lut, LutContext)> {
    let policies = vec![
        SchedulePolicy::DrtDynamic,
        SchedulePolicy::static_full(),
        SchedulePolicy::Static { entry_index: 0 },
    ];
    let mut out = Vec::new();

    let e = DrtEngine::segformer(
        SegFormerVariant::b0(),
        Workload::SegFormerAde,
        (64, 64),
        ResourceKind::GpuTime,
    )
    .expect("b0 gpu-time engine builds");
    let mut ctx = LutContext::bare(
        EngineFamily::SegFormer(SegFormerVariant::b0()),
        150,
        (64, 64),
    );
    ctx.budget_floor = Some(e.lut().entries()[0].resource);
    ctx.policies = policies.clone();
    out.push(("segformer-b0 gpu-time".to_string(), e.lut().clone(), ctx));

    let e = DrtEngine::segformer_on_accelerator(
        SegFormerVariant::b0(),
        Workload::SegFormerAde,
        (64, 64),
        &AccelConfig::accelerator_star(),
        AccelResource::Cycles,
    )
    .expect("b0 accel-cycles engine builds");
    let mut ctx = LutContext::bare(
        EngineFamily::SegFormer(SegFormerVariant::b0()),
        150,
        (64, 64),
    );
    ctx.budget_floor = Some(e.lut().entries()[0].resource);
    ctx.policies = policies.clone();
    out.push((
        "segformer-b0 accel-cycles".to_string(),
        e.lut().clone(),
        ctx,
    ));

    let tiny = SwinVariant::tiny();
    let space = swin_sweep_space(&tiny, 2, 4);
    let e = DrtEngine::swin(
        tiny,
        Workload::SwinTinyAde,
        (64, 64),
        &space,
        ResourceKind::GpuTime,
    )
    .expect("swin-tiny engine builds");
    let mut ctx = LutContext::bare(EngineFamily::Swin(tiny), 150, (64, 64));
    ctx.budget_floor = Some(e.lut().entries()[0].resource);
    ctx.policies = policies;
    out.push(("swin-tiny gpu-time".to_string(), e.lut().clone(), ctx));

    out
}

/// Runs the full verification suite; returns the process exit code.
pub fn run(args: VerifyArgs) -> i32 {
    let opts = VerifyOptions::default();
    let accels = accels();
    let accel_refs: Vec<(&str, AccelConfig)> = accels.to_vec();
    let mut reports: Vec<Report> = Vec::new();
    let mut safety_rows: Vec<(String, String)> = Vec::new();

    for (label, graph) in model_graphs() {
        let mut report = verify_model_on_accelerators(&graph, &accel_refs, &opts);
        // Pass 5: lower the graph into a compiled plan and prove the two
        // are the same program. Only meaningful over a sound graph.
        if report.errors() == 0 {
            match ExecPlan::compile(&graph, WeightGen::new(0)) {
                Ok(plan) => {
                    report.extend(verify_plan(&graph, &plan));
                    // Pass 6: prove the plan safe to run in parallel —
                    // chunk disjointness, reclamation soundness, and the
                    // shadow-replay cross-check.
                    report.extend(verify_exec_safety(&plan));
                    if args.exec_safety {
                        safety_rows.push((label.clone(), exec_safety_summary(&plan).to_string()));
                    }
                }
                Err(e) => panic!("compiling a plan for {label} failed: {e}"),
            }
        }
        report.target = format!("{label} ({} nodes)", graph.len());
        reports.push(report);
    }
    // The unsafe/indexing audit covers sources, not artifacts: one report
    // for the whole workspace hot path.
    let mut audit = Report::new("hot-path source audit (V057/V058)");
    audit.extend(audit_sources());
    reports.push(audit);
    for (label, lut, ctx) in engine_luts() {
        let mut report = verify_lut_report(&lut, &ctx, &opts);
        report.target = format!("LUT {label} ({} rows)", lut.len());
        reports.push(report);
    }

    let errors: usize = reports.iter().map(Report::errors).sum();
    let warnings: usize = reports.iter().map(Report::warnings).sum();

    if args.json {
        let mut out = String::from("[");
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&r.to_json());
        }
        out.push(']');
        println!("{out}");
    } else {
        let mut t = Table::new(&["target", "errors", "warnings", "status"]);
        for r in &reports {
            let status = if r.is_clean(args.deny_warnings) {
                "ok"
            } else {
                "FAIL"
            };
            t.row(&[
                r.target.clone(),
                r.errors().to_string(),
                r.warnings().to_string(),
                status.to_string(),
            ]);
        }
        t.print();
        if args.exec_safety {
            let mut t = Table::new(&["target", "exec safety (pass 6)"]);
            for (label, summary) in &safety_rows {
                t.row(&[label.clone(), summary.clone()]);
            }
            println!();
            t.print();
        }
        for r in reports.iter().filter(|r| !r.diagnostics.is_empty()) {
            print!("\n{}", r.render());
        }
        println!(
            "\nverify: {} target(s), {errors} error(s), {warnings} warning(s){}",
            reports.len(),
            if args.deny_warnings {
                " (warnings denied)"
            } else {
                ""
            }
        );
    }
    exit_code(errors, warnings, args.deny_warnings)
}
