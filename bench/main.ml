(* Micro-benchmarks for the numbers EXPERIMENTS.md quotes outside the
   paper's two tables:

   - kernel/*: PK vs heavyweight-SystemC-style kernel (Section 5.2's
     motivation);
   - sc_time/*: integer vs float simulation time (Section 4.3);
   - exploration/*: first error vs exhaustive exploration of T1
     (Section 5.3's observation, quoted under Table 2);
   - baseline/*: symbolic execution vs random testing on the IF6
     masking harness.

   Table 1 and Table 2 themselves come from `symsysc table1` and
   `symsysc table2`; the gated end-to-end benchmark is perfbench/.

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Toolkit

module Engine = Symex.Engine
module Config = Plic.Config
module Fault = Plic.Fault

let bench_session =
  Engine.Session.make
    ~limits:{ Engine.no_limits with Engine.max_paths = Some 400 }
    ()

let first_error_session =
  { bench_session with Engine.Session.stop_after_errors = Some 1 }

let params variant faults =
  Symsysc.Tests.with_faults faults
    (Symsysc.Tests.with_variant variant
       (Symsysc.Tests.scaled_params ~num_sources:4 ~t5_max_len:8))

(* ------------------------------------------------------------------ *)
(* Kernel ablation: PK vs heavyweight SystemC-style kernel             *)

let pk_workload () =
  let sched = Pk.Scheduler.create () in
  let ev = Pk.Event.make "e" in
  let n = ref 0 in
  Pk.Scheduler.spawn sched
    (Pk.Process.make "w" (fun () ->
         incr n;
         Pk.Process.Wait_event ev));
  Pk.Scheduler.run_ready sched;
  for _ = 1 to 500 do
    Pk.Scheduler.notify_at sched ev (Pk.Sc_time.ns 10);
    ignore (Pk.Scheduler.step sched)
  done;
  assert (!n = 501)

let heavy_workload () =
  let k = Pk.Heavy_kernel.create () in
  let ev = Pk.Heavy_kernel.new_event k in
  let n = ref 0 in
  Pk.Heavy_kernel.spawn k "w" (fun () ->
      incr n;
      Pk.Heavy_kernel.Wait_event ev);
  for _ = 1 to 500 do
    Pk.Heavy_kernel.notify_after k ev 1e-8;
    ignore (Pk.Heavy_kernel.step k)
  done;
  assert (!n = 501)

let kernel_tests =
  [
    Test.make ~name:"peripheral-kernel" (Staged.stage pk_workload);
    Test.make ~name:"systemc-style-heavy" (Staged.stage heavy_workload);
  ]

(* ------------------------------------------------------------------ *)
(* sc_time ablation: integer vs float arithmetic                       *)

let int_time_workload () =
  let t = ref Pk.Sc_time.zero in
  for i = 1 to 10_000 do
    t := Pk.Sc_time.add !t (Pk.Sc_time.ns i);
    if Pk.Sc_time.(!t > Pk.Sc_time.us 1) then t := Pk.Sc_time.zero
  done

let float_time_workload () =
  let t = ref 0.0 in
  for i = 1 to 10_000 do
    t := !t +. (float_of_int i *. 1e-9);
    if !t > 1e-6 then t := 0.0
  done;
  ignore !t

let time_tests =
  [
    Test.make ~name:"integer-ps" (Staged.stage int_time_workload);
    Test.make ~name:"float-seconds" (Staged.stage float_time_workload);
  ]

(* ------------------------------------------------------------------ *)
(* First-error vs exhaustive exploration (Section 5.3's observation)   *)

let exploration_tests =
  let p = params Config.Original [] in
  let t1 =
    match Symsysc.Tests.by_name "T1" with Some t -> t | None -> assert false
  in
  [
    Test.make ~name:"first-error"
      (Staged.stage (fun () ->
           ignore (Engine.Session.run first_error_session (t1 p))));
    Test.make ~name:"exhaustive"
      (Staged.stage (fun () -> ignore (Engine.Session.run bench_session (t1 p))));
  ]

(* ------------------------------------------------------------------ *)
(* Baseline: symbolic execution vs random testing on the IF6 harness   *)

let baseline_tests =
  let harness = Symsysc.Tests.masking_harness (params Config.Fixed [ Fault.IF6 ]) in
  [
    Test.make ~name:"symbolic-first-error"
      (Staged.stage (fun () ->
           ignore (Engine.Session.run first_error_session harness)));
    Test.make ~name:"random-testing"
      (Staged.stage (fun () ->
           ignore (Engine.random_test ~seed:11 ~max_trials:100_000 harness)));
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                     *)

let benchmark_group name tests =
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (test_name, ols_result) ->
       match Analyze.OLS.estimates ols_result with
       | Some [ ns ] -> Format.printf "  %-40s %12.3f ms/run@." test_name (ns /. 1e6)
       | Some _ | None -> Format.printf "  %-40s (no estimate)@." test_name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let () =
  Format.printf "=== SymSysC micro-benchmarks ===@.@.";
  Format.printf "-- Ablation: PK vs heavyweight kernel (501 activations) --@.";
  benchmark_group "kernel" kernel_tests;
  Format.printf "@.-- Ablation: integer vs float simulation time (10k ops) --@.";
  benchmark_group "sc_time" time_tests;
  Format.printf "@.-- Ablation: first error vs exhaustive exploration (T1) --@.";
  benchmark_group "exploration" exploration_tests;
  Format.printf "@.-- Baseline: symbolic vs random testing (fault IF6) --@.";
  benchmark_group "baseline" baseline_tests
