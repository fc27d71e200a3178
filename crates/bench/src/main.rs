//! `repro`: regenerate the paper's tables and figures.

use vit_bench::experiments::*;

const USAGE: &str = "\
usage: repro <experiment>

characterization (paper §II):
  table1      model summary
  fig1        DETR/D-DETR backbone vs transformer split across batches
  fig2        SegFormer/Swin layer structure inventory
  fig3        SegFormer-B2 FLOPs/time distribution
  fig4        Swin-Tiny FLOPs/time distribution
  fig5        image size vs fuse-convolution share

resilience (§III):
  table2      SegFormer dynamic configurations
  fig6        SegFormer trade-off curves + trained squares
  table3      Swin-Base dynamic configurations
  fig7        Swin trade-off curves + trained squares
  fidelity    measured pruned-vs-full output agreement (executable)

engine (§IV):
  fig8        the DRT engine under a varying budget (executable)
  earlyexit   deadline misses of input-dependent early exit
  accel-lut   the engine keyed by accelerator cycles
  crossover   when to switch to retrained models
  serve       fleet-scale continuous-batching sweep: batched DRT vs
              unbatched DRT vs static full model over burst / diurnal /
              adversarial multi-tenant mixes; exits non-zero on any
              invariant violation
              (flags: --json write BENCH_serve.json,
               --quick smaller fleet + shorter trace for CI smoke runs)

robustness:
  chaos       self-healing degraded-retry serving vs fail-fast vs a static
              full-model server under swept deterministic fault injection,
              with measured fidelity of the degraded completions; exits
              non-zero on any invariant violation
              (flags: --json write BENCH_chaos.json,
               --quick fewer rates + shorter trace for CI smoke runs)

accelerator (§V/§VI):
  fig9        accelerator organization + sample mapping
  fig10       SegFormer time/energy distribution on accelerator_A
  fig11       energy-per-FLOP outliers
  fig12       dynamic configs across weight-memory sizes (+fig13 energy)
  fig14       vectorization/memory design space
  fig15       Swin-Tiny on accelerator*
  table4      OFA accelerators (+fig16 accuracy vs cycles)

static analysis:
  verify      run all vit-verify passes over every built-in model + LUT
              (flags: --json machine-readable output, --deny-warnings
               exit non-zero on warnings too, --exec-safety print what
               pass 6 proved per artifact)

regression benchmarks:
  bench       compiled-plan replay at 1/2/4 threads on full model paths;
              asserts outputs bit-identical to the interpreter oracle and
              reports per-op-class GFLOP/s of the replay
              (flags: --json write BENCH_parallel_exec.json and ratchet
               per-op-class GFLOP/s against the committed baseline
               (exit 1 on >15% regression or an unreadable baseline),
               --quick fewer reps/threads for CI smoke runs,
               --trace <path> gate disabled-tracing overhead and write a
               validated chrome-trace JSON)

profiling:
  profile     one traced DRT inference by compiled-plan replay: flame
              summary + chrome-trace JSON
              usage: repro profile <model> <budget> [--threads N]
                     [--out PATH]
              model: segformer-b0 | segformer-b2
              budget: fraction of the full path in (0, 1]
              (default --out trace.json; load at chrome://tracing or
               https://ui.perfetto.dev)

summary:
  headline    every headline claim, paper vs ours
  ablations   design-choice ablations
  all         run everything
";

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    match arg.as_str() {
        "table1" => characterization::table1(),
        "fig1" => characterization::fig1(),
        "fig2" => characterization::fig2(),
        "fig3" => characterization::fig3(),
        "fig4" => characterization::fig4(),
        "fig5" => characterization::fig5(),
        "table2" => resilience::table2(),
        "fig6" => resilience::fig6(),
        "table3" => resilience::table3(),
        "fig7" => resilience::fig7(),
        "fidelity" => resilience::fidelity(),
        "fig8" => engine::fig8(),
        "earlyexit" => engine::early_exit(),
        "accel-lut" => engine::accel_lut(),
        "crossover" => engine::crossover(),
        "serve" => {
            let mut args = serve::ServeArgs::default();
            for flag in std::env::args().skip(2) {
                match flag.as_str() {
                    "--json" => args.json = true,
                    "--quick" => args.quick = true,
                    other => {
                        eprintln!("unknown serve flag `{other}`\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            std::process::exit(serve::run(args));
        }
        "fig9" => accelerator::fig9(),
        "fig10" => accelerator::fig10(),
        "fig11" => accelerator::fig11(),
        "fig12" | "fig13" => accelerator::fig12_13(),
        "fig14" => accelerator::fig14(),
        "fig15" => accelerator::fig15(),
        "table4" | "fig16" => accelerator::table4_fig16(),
        "verify" => {
            let mut args = verify::VerifyArgs::default();
            for flag in std::env::args().skip(2) {
                match flag.as_str() {
                    "--json" => args.json = true,
                    "--deny-warnings" => args.deny_warnings = true,
                    "--exec-safety" => args.exec_safety = true,
                    other => {
                        eprintln!("unknown verify flag `{other}`\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            std::process::exit(verify::run(args));
        }
        "chaos" => {
            let mut args = chaos::ChaosArgs::default();
            for flag in std::env::args().skip(2) {
                match flag.as_str() {
                    "--json" => args.json = true,
                    "--quick" => args.quick = true,
                    other => {
                        eprintln!("unknown chaos flag `{other}`\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            std::process::exit(chaos::run(args));
        }
        "bench" => {
            let mut args = parallel::BenchArgs::default();
            let mut rest = std::env::args().skip(2);
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--json" => args.json = true,
                    "--quick" => args.quick = true,
                    "--trace" => {
                        args.trace = Some(rest.next().unwrap_or_else(|| {
                            eprintln!("--trace needs a path\n\n{USAGE}");
                            std::process::exit(2);
                        }));
                    }
                    other => {
                        eprintln!("unknown bench flag `{other}`\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            std::process::exit(parallel::bench(args));
        }
        "profile" => {
            let mut rest = std::env::args().skip(2);
            let mut args = profile::ProfileArgs {
                model: rest.next().unwrap_or_else(|| {
                    eprintln!("profile needs a model\n\n{USAGE}");
                    std::process::exit(2);
                }),
                ..profile::ProfileArgs::default()
            };
            args.budget = rest.next().and_then(|b| b.parse().ok()).unwrap_or_else(|| {
                eprintln!("profile needs a numeric budget fraction\n\n{USAGE}");
                std::process::exit(2);
            });
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--threads" => {
                        args.threads =
                            rest.next().and_then(|t| t.parse().ok()).unwrap_or_else(|| {
                                eprintln!("--threads needs a positive integer\n\n{USAGE}");
                                std::process::exit(2);
                            });
                    }
                    "--out" => {
                        args.out = rest.next().unwrap_or_else(|| {
                            eprintln!("--out needs a path\n\n{USAGE}");
                            std::process::exit(2);
                        });
                    }
                    other => {
                        eprintln!("unknown profile flag `{other}`\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            profile::profile(args);
        }
        "headline" => headline::headline(),
        "ablations" => ablations::all(),
        "all" => {
            characterization::table1();
            characterization::fig1();
            characterization::fig2();
            characterization::fig3();
            characterization::fig4();
            characterization::fig5();
            resilience::table2();
            resilience::fig6();
            resilience::table3();
            resilience::fig7();
            resilience::fidelity();
            engine::fig8();
            engine::early_exit();
            engine::accel_lut();
            engine::crossover();
            serve::serve();
            accelerator::fig9();
            accelerator::fig10();
            accelerator::fig11();
            accelerator::fig12_13();
            accelerator::fig14();
            accelerator::fig15();
            accelerator::table4_fig16();
            headline::headline();
            ablations::all();
        }
        other => {
            eprintln!("unknown experiment `{other}`\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}
