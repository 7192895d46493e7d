(* Benchmark harness: one Bechamel group per paper artifact.

   - table1/*: the five symbolic tests on the original PLIC (the
     workload behind Table 1), at benchmark scale;
   - table2/*: time-to-first-detection for each injected fault (the
     workload behind Table 2);
   - ablations: PK vs heavyweight-SystemC-style kernel (Section 5.2's
     motivation), integer vs float sc_time (Section 4.3), solver caches
     on/off, and first-error vs exhaustive exploration (Section 5.3).

   After the micro-benchmarks the harness prints the actual Table 1 and
   Table 2 reproductions at the configured scale (SYMSYSC_SOURCES,
   default 8; the FE310 value is 51).

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Toolkit

module Engine = Symex.Engine
module Config = Plic.Config
module Fault = Plic.Fault

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some v -> (try int_of_string v with Failure _ -> default)
  | None -> default

(* SYMSYSC_BENCH_SMOKE=1 runs every group once with a tiny quota and a
   scaled-down table reproduction — enough for CI to prove that the
   harness and both BENCH_*.json files stay generatable without paying
   the full measurement cost. *)
let smoke =
  match Sys.getenv_opt "SYMSYSC_BENCH_SMOKE" with
  | Some "" | Some "0" | None -> false
  | Some _ -> true

let bench_sources = 4
let bench_limits =
  { Engine.no_limits with Engine.max_paths = Some 400 }

let bench_session = Engine.Session.make ~limits:bench_limits ()

let first_error_session =
  { bench_session with Engine.Session.stop_after_errors = Some 1 }

let params variant faults =
  Symsysc.Tests.with_faults faults
    (Symsysc.Tests.with_variant variant
       (Symsysc.Tests.scaled_params ~num_sources:bench_sources ~t5_max_len:8))

(* ------------------------------------------------------------------ *)
(* Table 1 workload: one bench per test                                *)

let table1_tests =
  let original = params Config.Original [] in
  List.map
    (fun (name, test) ->
       Test.make ~name
         (Staged.stage (fun () ->
              ignore (Engine.Session.run bench_session (test original)))))
    Symsysc.Tests.all

(* ------------------------------------------------------------------ *)
(* Table 2 workload: time-to-first-detection per injected fault        *)

let detector_for = function
  | Fault.IF1 | Fault.IF2 | Fault.IF4 | Fault.IF5 -> "T1"
  | Fault.IF3 -> "T2"
  | Fault.IF6 -> "T3"

let table2_tests =
  List.map
    (fun fault ->
       let test =
         match Symsysc.Tests.by_name (detector_for fault) with
         | Some t -> t
         | None -> assert false
       in
       let p = params Config.Fixed [ fault ] in
       Test.make
         ~name:(Printf.sprintf "%s-by-%s" (Fault.to_string fault) (detector_for fault))
         (Staged.stage (fun () ->
              ignore (Engine.Session.run first_error_session (test p)))))
    Fault.all

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
(* Solver-cache ablation                                               *)

let solver_workload () =
  (* A fixed family of queries with shared structure, as exploration
     produces: caches should make the repeats nearly free. *)
  let x = Smt.Expr.fresh_var "bench_x" 32 in
  let y = Smt.Expr.fresh_var "bench_y" 32 in
  for k = 1 to 12 do
    let q =
      [
        Smt.Expr.ult x (Smt.Expr.int ~width:32 50);
        Smt.Expr.ugt (Smt.Expr.add x y) (Smt.Expr.int ~width:32 k);
      ]
    in
    ignore (Smt.Solver.is_sat q);
    ignore (Smt.Solver.is_sat q)
  done

let solver_tests =
  [
    Test.make ~name:"caches-on"
      (Staged.stage (fun () ->
           Smt.Solver.set_caching true;
           solver_workload ()));
    Test.make ~name:"caches-off"
      (Staged.stage (fun () ->
           Smt.Solver.set_caching false;
           Smt.Solver.clear_caches ();
           solver_workload ();
           Smt.Solver.set_caching true));
  ]

(* ------------------------------------------------------------------ *)
(* Independence-slicing ablation: the whole Table 1 workload with the
   solver's constraint-independence layer on vs off                    *)

let table1_workload () =
  let original = params Config.Original [] in
  List.iter
    (fun (_, test) -> ignore (Engine.Session.run bench_session (test original)))
    Symsysc.Tests.all

let independence_tests =
  [
    Test.make ~name:"independence-on"
      (Staged.stage (fun () ->
           Smt.Solver.set_independence true;
           Smt.Solver.clear_caches ();
           table1_workload ()));
    Test.make ~name:"independence-off"
      (Staged.stage (fun () ->
           Smt.Solver.set_independence false;
           Smt.Solver.clear_caches ();
           table1_workload ();
           Smt.Solver.set_independence true));
  ]

(* ------------------------------------------------------------------ *)
(* Incremental-solving ablation: the whole Table 1 workload with the
   solver's scope reuse (retained CDCL instances under guard
   assumptions) on vs off                                              *)

let incremental_tests =
  [
    Test.make ~name:"incremental-on"
      (Staged.stage (fun () ->
           Smt.Solver.set_incremental true;
           Smt.Solver.clear_caches ();
           table1_workload ()));
    Test.make ~name:"incremental-off"
      (Staged.stage (fun () ->
           Smt.Solver.set_incremental false;
           Smt.Solver.clear_caches ();
           table1_workload ();
           Smt.Solver.set_incremental true));
  ]

(* ------------------------------------------------------------------ *)
(* Snapshot-forking ablation: the whole Table 1 workload with fork
   fast-forward on vs off (pure decision-prefix replay)                *)

let snapshot_workload snapshots () =
  let original = params Config.Original [] in
  let session = { bench_session with Engine.Session.snapshots } in
  Smt.Solver.clear_caches ();
  List.iter
    (fun (_, test) -> ignore (Engine.Session.run session (test original)))
    Symsysc.Tests.all

let snapshot_tests =
  [
    Test.make ~name:"snapshots-on" (Staged.stage (snapshot_workload true));
    Test.make ~name:"snapshots-off" (Staged.stage (snapshot_workload false));
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
(* Scaling: parallel workers on one exploration                        *)

let scaling_workers = [ 1; 2; 4 ]

let scaling_tests =
  let p = params Config.Original [] in
  let t1 =
    match Symsysc.Tests.by_name "T1" with Some t -> t | None -> assert false
  in
  List.map
    (fun workers ->
       let session = { bench_session with Engine.Session.workers } in
       Test.make ~name:(Printf.sprintf "workers-%d" workers)
         (Staged.stage (fun () -> ignore (Engine.Session.run session (t1 p)))))
    scaling_workers

(* ------------------------------------------------------------------ *)
(* Baseline: symbolic execution vs random testing on the IF6 harness   *)

let baseline_tests =
  let p =
    Symsysc.Tests.with_faults [ Fault.IF6 ]
      (params Config.Fixed [ Fault.IF6 ])
  in
  let harness = Symsysc.Tests.masking_harness p in
  [
    Test.make ~name:"symbolic-first-error"
      (Staged.stage (fun () ->
           ignore (Engine.Session.run first_error_session harness)));
    Test.make ~name:"random-testing"
      (Staged.stage (fun () ->
           ignore (Engine.random_test ~seed:11 ~max_trials:100_000 harness)));
  ]

(* ------------------------------------------------------------------ *)
(* Second peripheral: the CLINT comparator property                    *)

let clint_property () =
  let sched = Pk.Scheduler.create () in
  let clint = Clint.create Clint.Config.fe310 sched in
  let port = Clint.Port.create () in
  Clint.connect clint port;
  Pk.Scheduler.run_ready sched;
  let cmp = Engine.fresh "mtimecmp" 64 in
  Engine.assume
    (Smt.Expr.and_
       (Smt.Expr.uge cmp (Smt.Expr.int ~width:64 1))
       (Smt.Expr.ule cmp (Smt.Expr.int ~width:64 8)));
  let data =
    Array.init 8 (fun i -> Smt.Expr.extract ~hi:((8 * i) + 7) ~lo:(8 * i) cmp)
  in
  let p =
    Tlm.Payload.make_write
      ~addr:(Symex.Value.of_int Clint.mtimecmp_base)
      ~len:(Symex.Value.of_int 8) ~data
  in
  ignore (Clint.transport clint p Pk.Sc_time.zero);
  Pk.Scheduler.run_until sched
    (Pk.Sc_time.mul_int Clint.Config.fe310.Clint.Config.tick 10);
  Engine.check ~site:"clint:fired" (Smt.Expr.bool port.Clint.Port.timer_pending)

let clint_tests =
  [
    Test.make ~name:"timer-comparator-sweep"
      (Staged.stage (fun () ->
           ignore (Engine.Session.run bench_session clint_property)));
  ]

(* ------------------------------------------------------------------ *)
(* Resilience: checkpoint serialization and checkpointed exploration   *)

let resilience_tests =
  let original = params Config.Original [] in
  let t4 =
    match Symsysc.Tests.by_name "t4" with
    | Some t -> t
    | None -> assert false
  in
  (* A representative checkpoint: T4 truncated after a few paths (T4
     explores ~50 paths at bench scale, so the frontier is non-empty
     and the resume bench does real work). *)
  let sample_checkpoint =
    let saved = ref None in
    let session =
      { bench_session with
        Engine.Session.limits = { bench_limits with Engine.max_paths = Some 5 };
        checkpoint =
          Some
            { Engine.write = (fun ck -> saved := Some ck);
              every_s = infinity } }
    in
    ignore (Engine.Session.run ~label:"t4" session (t4 original));
    match !saved with Some ck -> ck | None -> assert false
  in
  let sample_json = Obs.Json.to_string (Symex.Checkpoint.to_json sample_checkpoint) in
  [
    Test.make ~name:"checkpoint-roundtrip"
      (Staged.stage (fun () ->
           match Obs.Json.of_string sample_json with
           | Error e -> failwith e
           | Ok j ->
             (match Symex.Checkpoint.of_json j with
              | Ok _ -> ()
              | Error e -> failwith e)));
    (* Exploration with a snapshot between every two paths — the upper
       bound of checkpointing overhead (the CLI default is every 30s). *)
    Test.make ~name:"checkpointed-exploration"
      (Staged.stage (fun () ->
           let sink = ref None in
           let session =
             { bench_session with
               Engine.Session.checkpoint =
                 Some
                   { Engine.write = (fun ck -> sink := Some ck);
                     every_s = 0.0 } }
           in
           ignore (Engine.Session.run ~label:"t4" session (t4 original))));
    Test.make ~name:"resume-from-checkpoint"
      (Staged.stage (fun () ->
           let session =
             { bench_session with
               Engine.Session.resume = Some sample_checkpoint }
           in
           ignore (Engine.Session.run ~label:"t4" session (t4 original))));
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                     *)

let bench_run_limit = if smoke then 1 else 50
let bench_quota_seconds = if smoke then 0.25 else 2.0

(* (group, test, mean ms/run) rows accumulated for BENCH_1.json. *)
let json_rows : (string * string * float option) list ref = ref []

let benchmark_group name tests =
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:bench_run_limit
      ~quota:(Time.second bench_quota_seconds) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter
    (fun (test_name, ols_result) ->
       let estimate =
         match Analyze.OLS.estimates ols_result with
         | Some [ ns ] -> Some (ns /. 1e6)
         | Some _ | None -> None
       in
       json_rows := (name, test_name, estimate) :: !json_rows;
       match estimate with
       | Some ms -> Format.printf "  %-40s %12.3f ms/run@." test_name ms
       | None -> Format.printf "  %-40s (no estimate)@." test_name)
    rows

(* Machine-readable results, one file per bench invocation, so the perf
   trajectory of the repo is diffable across PRs. *)
let write_bench_json path =
  let buf = Buffer.create 4096 in
  let groups =
    List.fold_left
      (fun acc (g, _, _) -> if List.mem g acc then acc else g :: acc)
      []
      (List.rev !json_rows)
    |> List.rev
  in
  Buffer.add_string buf "{\"schema\":\"symsysc-bench-v1\",";
  Printf.bprintf buf "\"runs\":%d,\"quota_seconds\":%.2f,\"groups\":["
    bench_run_limit bench_quota_seconds;
  List.iteri
    (fun gi g ->
       if gi > 0 then Buffer.add_char buf ',';
       let tests =
         List.filter (fun (g', _, _) -> g' = g) (List.rev !json_rows)
       in
       let means = List.filter_map (fun (_, _, m) -> m) tests in
       let group_mean =
         match means with
         | [] -> 0.0
         | _ ->
           List.fold_left ( +. ) 0.0 means /. float_of_int (List.length means)
       in
       Printf.bprintf buf "{\"name\":\"%s\",\"mean_ms\":%.6f,\"tests\":["
         (Obs.Export.escape_json g) group_mean;
       List.iteri
         (fun ti (_, t, m) ->
            if ti > 0 then Buffer.add_char buf ',';
            match m with
            | Some ms ->
              Printf.bprintf buf "{\"name\":\"%s\",\"mean_ms\":%.6f}"
                (Obs.Export.escape_json t) ms
            | None ->
              Printf.bprintf buf "{\"name\":\"%s\",\"mean_ms\":null}"
                (Obs.Export.escape_json t))
         tests;
       Buffer.add_string buf "]}")
    groups;
  Buffer.add_string buf "]}\n";
  Obs.Json.write_atomic path (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* BENCH_2.json: instrumented independence on/off comparison.  One
   cold-cache exploration per test per mode, recording solver activity
   and the found error sites, so the sat-call/cache-hit effect of the
   slicing layer (and the bug-set equivalence of the two modes) is
   machine-checkable across PRs. *)

type mode_row = {
  m_test : string;
  m_stats : Smt.Solver.Stats.t;
  m_wall_ms : float;
  m_sites : string list;
}

(* The slicing payoff grows with the number of independent interrupt
   sources, so measure at the paper's reduced scale (8 sources) rather
   than the 4-source micro-bench scale — except under smoke, where
   only generatability matters. *)
let independence_sources = if smoke then bench_sources else 8

let instrumented_mode independence =
  Smt.Solver.set_independence independence;
  let original =
    Symsysc.Tests.with_faults []
      (Symsysc.Tests.with_variant Config.Original
         (Symsysc.Tests.scaled_params ~num_sources:independence_sources
            ~t5_max_len:(if smoke then 8 else 16)))
  in
  List.map
    (fun (name, test) ->
       Smt.Solver.clear_caches ();
       let session =
         if smoke then bench_session
         else
           Engine.Session.make
             ~limits:{ Engine.no_limits with Engine.max_paths = Some 20_000 }
             ()
       in
       let before = Smt.Solver.Stats.get () in
       let report = Engine.Session.run session (test original) in
       let stats = Smt.Solver.Stats.sub (Smt.Solver.Stats.get ()) before in
       {
         m_test = name;
         m_stats = stats;
         m_wall_ms = report.Engine.wall_time *. 1000.0;
         m_sites =
           List.sort String.compare
             (List.map
                (fun (e : Symex.Error.t) -> e.Symex.Error.site)
                report.Engine.errors);
       })
    Symsysc.Tests.all

let write_independence_json path =
  let on_rows = instrumented_mode true in
  let off_rows = instrumented_mode false in
  Smt.Solver.set_independence true;
  Smt.Solver.clear_caches ();
  let total f rows =
    List.fold_left (fun acc r -> acc + f r.m_stats) 0 rows
  in
  let sat_on = total (fun s -> s.Smt.Solver.Stats.sat_calls) on_rows in
  let sat_off = total (fun s -> s.Smt.Solver.Stats.sat_calls) off_rows in
  let hit_rate rows =
    let slices = total (fun s -> s.Smt.Solver.Stats.slices) rows in
    let hits = total (fun s -> s.Smt.Solver.Stats.slice_hits) rows in
    if slices = 0 then 0.0 else float_of_int hits /. float_of_int slices
  in
  let buf = Buffer.create 4096 in
  let row_json r =
    let s = r.m_stats in
    Printf.bprintf buf
      "{\"test\":\"%s\",\"queries\":%d,\"slices\":%d,\"slice_hits\":%d,\
       \"cache_hits\":%d,\"cex_hits\":%d,\"sat_calls\":%d,\
       \"sat_conflicts\":%d,\"wall_ms\":%.3f,\"error_sites\":["
      (Obs.Export.escape_json r.m_test)
      s.Smt.Solver.Stats.queries s.Smt.Solver.Stats.slices
      s.Smt.Solver.Stats.slice_hits s.Smt.Solver.Stats.cache_hits
      s.Smt.Solver.Stats.cex_hits s.Smt.Solver.Stats.sat_calls
      s.Smt.Solver.Stats.sat_conflicts r.m_wall_ms;
    List.iteri
      (fun i site ->
         if i > 0 then Buffer.add_char buf ',';
         Printf.bprintf buf "\"%s\"" (Obs.Export.escape_json site))
      r.m_sites;
    Buffer.add_string buf "]}"
  in
  let mode_json name rows =
    Printf.bprintf buf "\"%s\":[" name;
    List.iteri
      (fun i r ->
         if i > 0 then Buffer.add_char buf ',';
         row_json r)
      rows;
    Buffer.add_char buf ']'
  in
  Buffer.add_string buf "{\"schema\":\"symsysc-bench-independence-v1\",";
  Printf.bprintf buf "\"sources\":%d," independence_sources;
  mode_json "independence_on" on_rows;
  Buffer.add_char buf ',';
  mode_json "independence_off" off_rows;
  (* The aggregate hit rate is dominated by T5 (high in both modes);
     the per-test gain is what shows the slicing payoff, so report the
     best one explicitly (T2's path prefixes stay cached when fresh
     interrupt-source variables are appended). *)
  let per_test_rate r =
    let s = r.m_stats in
    if s.Smt.Solver.Stats.slices = 0 then 0.0
    else
      float_of_int s.Smt.Solver.Stats.slice_hits
      /. float_of_int s.Smt.Solver.Stats.slices
  in
  let best_test, best_gain =
    List.fold_left2
      (fun (bt, bg) on off ->
         let r_on = per_test_rate on and r_off = per_test_rate off in
         let gain = if r_off = 0.0 then 0.0 else (r_on -. r_off) /. r_off in
         if gain > bg then (on.m_test, gain) else (bt, bg))
      ("", 0.0) on_rows off_rows
  in
  let conflicts rows =
    total (fun s -> s.Smt.Solver.Stats.sat_conflicts) rows
  in
  Printf.bprintf buf
    ",\"summary\":{\"sat_calls_on\":%d,\"sat_calls_off\":%d,\
     \"sat_call_reduction\":%.4f,\"sat_conflicts_on\":%d,\
     \"sat_conflicts_off\":%d,\"hit_rate_on\":%.4f,\"hit_rate_off\":%.4f,\
     \"best_hit_rate_gain\":{\"test\":\"%s\",\"relative_gain\":%.4f},\
     \"same_error_sites\":%b}}\n"
    sat_on sat_off
    (if sat_off = 0 then 0.0
     else 1.0 -. (float_of_int sat_on /. float_of_int sat_off))
    (conflicts on_rows) (conflicts off_rows)
    (hit_rate on_rows) (hit_rate off_rows)
    (Obs.Export.escape_json best_test) best_gain
    (List.for_all2
       (fun a b -> a.m_test = b.m_test && a.m_sites = b.m_sites)
       on_rows off_rows);
  Obs.Json.write_atomic path (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* BENCH_7.json: instrumented incremental on/off comparison.  One
   cold-cache exploration per test per mode, recording solver totals,
   the bit-blast profile bucket and the found error sites, so the
   payoff of scope reuse — fewer re-encodings, less bit-blast and SAT
   time — and the bug-set equivalence of the two modes stay
   machine-checkable across PRs. *)

type inc_row = {
  i_test : string;
  i_stats : Smt.Solver.Stats.t;
  i_bitblast_s : float;
  i_wall_ms : float;
  i_sites : string list;
}

let instrumented_incremental incremental =
  Smt.Solver.set_incremental incremental;
  let original =
    Symsysc.Tests.with_faults []
      (Symsysc.Tests.with_variant Config.Original
         (Symsysc.Tests.scaled_params ~num_sources:independence_sources
            ~t5_max_len:(if smoke then 8 else 16)))
  in
  List.map
    (fun (name, test) ->
       Smt.Solver.clear_caches ();
       let session =
         if smoke then bench_session
         else
           Engine.Session.make
             ~limits:{ Engine.no_limits with Engine.max_paths = Some 20_000 }
             ()
       in
       let before = Smt.Solver.Stats.get () in
       let report = Engine.Session.run session (test original) in
       let stats = Smt.Solver.Stats.sub (Smt.Solver.Stats.get ()) before in
       let bitblast =
         List.fold_left
           (fun acc ((_, stage), (b : Obs.Profile.bucket)) ->
              if stage = "bitblast" then acc +. b.Obs.Profile.b_time else acc)
           0.0 report.Engine.profile
       in
       {
         i_test = name;
         i_stats = stats;
         i_bitblast_s = bitblast;
         i_wall_ms = report.Engine.wall_time *. 1000.0;
         i_sites =
           List.sort String.compare
             (List.map
                (fun (e : Symex.Error.t) -> e.Symex.Error.site)
                report.Engine.errors);
       })
    Symsysc.Tests.all

let write_incremental_json path =
  let on_rows = instrumented_incremental true in
  let off_rows = instrumented_incremental false in
  Smt.Solver.set_incremental true;
  Smt.Solver.clear_caches ();
  let totalf f rows = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let totali f rows =
    List.fold_left (fun acc r -> acc + f r.i_stats) 0 rows
  in
  let solver_s rows = totalf (fun r -> r.i_stats.Smt.Solver.Stats.time) rows in
  let bitblast_s rows = totalf (fun r -> r.i_bitblast_s) rows in
  let buf = Buffer.create 4096 in
  let row_json r =
    let s = r.i_stats in
    Printf.bprintf buf
      "{\"test\":\"%s\",\"queries\":%d,\"slices\":%d,\"sat_calls\":%d,\
       \"sat_conflicts\":%d,\"scope_reused\":%d,\"scope_rebuilds\":%d,\
       \"solver_s\":%.6f,\"bitblast_s\":%.6f,\"sat_s\":%.6f,\
       \"wall_ms\":%.3f,\"error_sites\":["
      (Obs.Export.escape_json r.i_test)
      s.Smt.Solver.Stats.queries s.Smt.Solver.Stats.slices
      s.Smt.Solver.Stats.sat_calls s.Smt.Solver.Stats.sat_conflicts
      s.Smt.Solver.Stats.scope_reused s.Smt.Solver.Stats.scope_rebuilds
      s.Smt.Solver.Stats.time r.i_bitblast_s s.Smt.Solver.Stats.sat_time
      r.i_wall_ms;
    List.iteri
      (fun i site ->
         if i > 0 then Buffer.add_char buf ',';
         Printf.bprintf buf "\"%s\"" (Obs.Export.escape_json site))
      r.i_sites;
    Buffer.add_string buf "]}"
  in
  let mode_json name rows =
    Printf.bprintf buf "\"%s\":[" name;
    List.iteri
      (fun i r ->
         if i > 0 then Buffer.add_char buf ',';
         row_json r)
      rows;
    Buffer.add_char buf ']'
  in
  Buffer.add_string buf "{\"schema\":\"symsysc-bench-incremental-v1\",";
  Printf.bprintf buf "\"sources\":%d," independence_sources;
  mode_json "incremental_on" on_rows;
  Buffer.add_char buf ',';
  mode_json "incremental_off" off_rows;
  let s_on = solver_s on_rows and s_off = solver_s off_rows in
  let b_on = bitblast_s on_rows and b_off = bitblast_s off_rows in
  Printf.bprintf buf
    ",\"summary\":{\"solver_s_on\":%.6f,\"solver_s_off\":%.6f,\
     \"solver_time_reduction\":%.4f,\"bitblast_s_on\":%.6f,\
     \"bitblast_s_off\":%.6f,\"bitblast_reduction\":%.4f,\
     \"sat_calls_on\":%d,\"sat_calls_off\":%d,\"scope_reused\":%d,\
     \"scope_rebuilds\":%d,\"same_error_sites\":%b}}\n"
    s_on s_off
    (if s_off = 0.0 then 0.0 else 1.0 -. (s_on /. s_off))
    b_on b_off
    (if b_off = 0.0 then 0.0 else 1.0 -. (b_on /. b_off))
    (totali (fun s -> s.Smt.Solver.Stats.sat_calls) on_rows)
    (totali (fun s -> s.Smt.Solver.Stats.sat_calls) off_rows)
    (totali (fun s -> s.Smt.Solver.Stats.scope_reused) on_rows)
    (totali (fun s -> s.Smt.Solver.Stats.scope_rebuilds) on_rows)
    (List.for_all2
       (fun a b -> a.i_test = b.i_test && a.i_sites = b.i_sites)
       on_rows off_rows);
  Obs.Json.write_atomic path (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* BENCH_9.json: snapshot forking vs decision-prefix replay.  One
   exploration per test per mode.  [instructions] (the DUV work the
   path set represents) is mode-independent by construction — the
   equivalence suites assert it — while [executed] = instructions -
   instructions_saved is what was actually re-executed: fast-forward
   must push the per-path executed count strictly below the replay
   baseline on every multi-path test, with identical error sites. *)

type snap_row = {
  n_test : string;
  n_wall_ms : float;
  n_paths : int;
  n_instructions : int;
  n_saved : int;
  n_snapshots : int;
  n_restores : int;
  n_sites : string list;
}

let instrumented_snapshots snapshots =
  let original =
    Symsysc.Tests.with_faults []
      (Symsysc.Tests.with_variant Config.Original
         (Symsysc.Tests.scaled_params ~num_sources:independence_sources
            ~t5_max_len:(if smoke then 8 else 16)))
  in
  let session =
    let base =
      if smoke then bench_session
      else
        Engine.Session.make
          ~limits:{ Engine.no_limits with Engine.max_paths = Some 20_000 }
          ()
    in
    { base with Engine.Session.snapshots }
  in
  List.map
    (fun (name, test) ->
       Smt.Solver.clear_caches ();
       let report = Engine.Session.run session (test original) in
       {
         n_test = name;
         n_wall_ms = report.Engine.wall_time *. 1000.0;
         n_paths = report.Engine.paths;
         n_instructions = report.Engine.instructions;
         n_saved = report.Engine.instructions_saved;
         n_snapshots = report.Engine.snapshots_taken;
         n_restores = report.Engine.snapshot_restores;
         n_sites =
           List.sort String.compare
             (List.map
                (fun (e : Symex.Error.t) -> e.Symex.Error.site)
                report.Engine.errors);
       })
    Symsysc.Tests.all

let snap_executed_per_path r =
  if r.n_paths = 0 then 0.0
  else float_of_int (r.n_instructions - r.n_saved) /. float_of_int r.n_paths

let write_snapshots_json path =
  let on_rows = instrumented_snapshots true in
  let off_rows = instrumented_snapshots false in
  let buf = Buffer.create 4096 in
  let row_json r =
    Printf.bprintf buf
      "{\"test\":\"%s\",\"wall_ms\":%.3f,\"paths\":%d,\"instructions\":%d,\
       \"instructions_saved\":%d,\"executed\":%d,\"executed_per_path\":%.3f,\
       \"snapshots_taken\":%d,\"snapshot_restores\":%d,\"error_sites\":["
      (Obs.Export.escape_json r.n_test)
      r.n_wall_ms r.n_paths r.n_instructions r.n_saved
      (r.n_instructions - r.n_saved)
      (snap_executed_per_path r)
      r.n_snapshots r.n_restores;
    List.iteri
      (fun i site ->
         if i > 0 then Buffer.add_char buf ',';
         Printf.bprintf buf "\"%s\"" (Obs.Export.escape_json site))
      r.n_sites;
    Buffer.add_string buf "]}"
  in
  let mode_json name rows =
    Printf.bprintf buf "\"%s\":[" name;
    List.iteri
      (fun i r ->
         if i > 0 then Buffer.add_char buf ',';
         row_json r)
      rows;
    Buffer.add_char buf ']'
  in
  Buffer.add_string buf "{\"schema\":\"symsysc-bench-snapshots-v1\",";
  Printf.bprintf buf "\"sources\":%d," independence_sources;
  mode_json "snapshots_on" on_rows;
  Buffer.add_char buf ',';
  mode_json "snapshots_off" off_rows;
  let wall rows = List.fold_left (fun acc r -> acc +. r.n_wall_ms) 0.0 rows in
  let saved rows = List.fold_left (fun acc r -> acc + r.n_saved) 0 rows in
  let w_on = wall on_rows and w_off = wall off_rows in
  Printf.bprintf buf
    ",\"summary\":{\"wall_ms_on\":%.3f,\"wall_ms_off\":%.3f,\
     \"instructions_saved\":%d,\"same_instructions\":%b,\
     \"executed_below_replay\":%b,\"same_error_sites\":%b}}\n"
    w_on w_off (saved on_rows)
    (List.for_all2
       (fun a b -> a.n_instructions = b.n_instructions)
       on_rows off_rows)
    (List.for_all2
       (fun a b ->
          a.n_paths <= 1
          || snap_executed_per_path a < snap_executed_per_path b)
       on_rows off_rows)
    (List.for_all2
       (fun a b -> a.n_test = b.n_test && a.n_sites = b.n_sites)
       on_rows off_rows);
  Obs.Json.write_atomic path (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* BENCH_4.json: worker-scaling of the whole Table 1 campaign.  One
   run of all five tests per worker count; error-site equality against
   the single-worker run is machine-checked, and the speedups are
   honest wall-clock ratios on this machine — the [cores] field
   qualifies them (on a single-core runner the expected speedup is
   <= 1x, the fork/IPC overhead). *)

(* Available cores, so BENCH_4 consumers can judge the speedup column.
   Linux sysfs is enough here and the fallback is harmless elsewhere. *)
let online_cores () =
  try
    let ic = open_in "/sys/devices/system/cpu/online" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    List.fold_left
      (fun acc range ->
         match String.split_on_char '-' (String.trim range) with
         | [ lo; hi ] -> acc + int_of_string hi - int_of_string lo + 1
         | [ _ ] -> acc + 1
         | _ -> acc)
      0
      (String.split_on_char ',' line)
  with _ -> 1

let scaling_sources = if smoke then bench_sources else 8
let scaling_t5_len = if smoke then 8 else 16

let scaling_campaign workers =
  let scenario =
    Symsysc.Verify.scenario ~num_sources:scaling_sources
      ~t5_max_len:scaling_t5_len ~workers ()
  in
  Smt.Solver.clear_caches ();
  (workers, Symsysc.Verify.table1 scenario)

let campaign_wall reports =
  List.fold_left
    (fun acc (r : Symsysc.Report.t) ->
       acc +. r.Symsysc.Report.engine.Engine.wall_time)
    0.0 reports

let campaign_sites reports =
  List.sort_uniq String.compare
    (List.concat_map
       (fun (r : Symsysc.Report.t) ->
          List.map
            (fun (e : Symex.Error.t) -> e.Symex.Error.site)
            r.Symsysc.Report.engine.Engine.errors)
       reports)

let write_scaling_json path rows =
  let cores = online_cores () in
  let base_wall =
    match rows with (_, reports) :: _ -> campaign_wall reports | [] -> 0.0
  in
  let base_sites =
    match rows with (_, reports) :: _ -> campaign_sites reports | [] -> []
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"schema\":\"symsysc-bench-scaling-v1\",";
  Printf.bprintf buf "\"sources\":%d,\"t5_max_len\":%d,\"cores\":%d,\"rows\":["
    scaling_sources scaling_t5_len cores;
  List.iteri
    (fun i (workers, reports) ->
       if i > 0 then Buffer.add_char buf ',';
       let wall = campaign_wall reports in
       let total f =
         List.fold_left
           (fun acc (r : Symsysc.Report.t) -> acc + f r.Symsysc.Report.engine)
           0 reports
       in
       Printf.bprintf buf
         "{\"workers\":%d,\"wall_s\":%.3f,\"paths\":%d,\"instructions\":%d,\
          \"speedup\":%.3f,\"error_sites\":["
         workers wall
         (total (fun e -> e.Engine.paths))
         (total (fun e -> e.Engine.instructions))
         (if wall > 0.0 then base_wall /. wall else 0.0);
       List.iteri
         (fun j site ->
            if j > 0 then Buffer.add_char buf ',';
            Printf.bprintf buf "\"%s\"" (Obs.Export.escape_json site))
         (campaign_sites reports);
       Buffer.add_string buf "]}")
    rows;
  Printf.bprintf buf "],\"summary\":{\"cores\":%d,\"same_error_sites\":%b}}\n"
    cores
    (List.for_all (fun (_, reports) -> campaign_sites reports = base_sites) rows);
  Obs.Json.write_atomic path (Buffer.contents buf)

(* BENCH_8.json: pipe vs loopback-TCP transport comparison.  The same
   T1–T5 campaign runs once per worker count on each transport — local
   forked workers over pipes, then a remote worker pool dialing a
   loopback listener — and the error-site sets are machine-checked
   equal across every row.  TCP wall times on one machine price the
   framing/registration overhead, not network latency. *)

let distributed_workers = [ 1; 2; 4 ]
let distributed_sources = if smoke then bench_sources else 8
let distributed_t5_len = if smoke then 8 else 16

let dist_scenario ?listen ?workers () =
  Symsysc.Verify.scenario ~num_sources:distributed_sources
    ~t5_max_len:distributed_t5_len ?listen ?workers ()

(* One test over loopback TCP: listen on an ephemeral port, fork a
   child running the remote worker pool, explore as a master with no
   local workers. *)
let tcp_test_report ~workers name =
  let l = Symex.Transport.listen ~host:"127.0.0.1" ~port:0 () in
  let _, port = Symex.Transport.listener_addr l in
  flush stdout;
  flush stderr;
  let kid =
    match Unix.fork () with
    | 0 ->
      Unix.close (Symex.Transport.listener_fd l);
      Obs.Progress.disable ();
      Obs.Sink.reset ();
      let code =
        try
          Symsysc.Verify.serve ~host:"127.0.0.1" ~port ~workers
            (dist_scenario ()) name
        with _ -> 1
      in
      Unix._exit code
    | pid -> pid
  in
  let report =
    Symsysc.Verify.run_test
      (dist_scenario ~listen:l ~workers:0 ())
      name
  in
  Symex.Transport.close_listener l;
  (* Registered workers were told to stop, but a pool worker whose
     first dial came after the master finished would redial the closed
     port forever: drain the pool. *)
  (try Unix.kill kid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] kid);
  report

let distributed_campaigns workers =
  Smt.Solver.clear_caches ();
  let pipe = Symsysc.Verify.table1 (dist_scenario ~workers ()) in
  Smt.Solver.clear_caches ();
  let tcp =
    List.map (fun (name, _) -> tcp_test_report ~workers name)
      Symsysc.Tests.all
  in
  (workers, pipe, tcp)

let write_distributed_json path rows =
  let base_sites =
    match rows with (_, pipe, _) :: _ -> campaign_sites pipe | [] -> []
  in
  let transport_json buf reports =
    let total f =
      List.fold_left
        (fun acc (r : Symsysc.Report.t) -> acc + f r.Symsysc.Report.engine)
        0 reports
    in
    Printf.bprintf buf
      "{\"wall_s\":%.3f,\"paths\":%d,\"instructions\":%d,\"error_sites\":["
      (campaign_wall reports)
      (total (fun e -> e.Engine.paths))
      (total (fun e -> e.Engine.instructions));
    List.iteri
      (fun j site ->
         if j > 0 then Buffer.add_char buf ',';
         Printf.bprintf buf "\"%s\"" (Obs.Export.escape_json site))
      (campaign_sites reports);
    Buffer.add_string buf "]}"
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"schema\":\"symsysc-bench-distributed-v1\",";
  Printf.bprintf buf "\"sources\":%d,\"t5_max_len\":%d,\"cores\":%d,\"rows\":["
    distributed_sources distributed_t5_len (online_cores ());
  List.iteri
    (fun i (workers, pipe, tcp) ->
       if i > 0 then Buffer.add_char buf ',';
       Printf.bprintf buf "{\"workers\":%d,\"pipe\":" workers;
       transport_json buf pipe;
       Buffer.add_string buf ",\"tcp\":";
       transport_json buf tcp;
       Buffer.add_string buf "}")
    rows;
  Printf.bprintf buf "],\"summary\":{\"same_error_sites\":%b}}\n"
    (List.for_all
       (fun (_, pipe, tcp) ->
          campaign_sites pipe = base_sites
          && campaign_sites tcp = base_sites)
       rows);
  Obs.Json.write_atomic path (Buffer.contents buf)

(* BENCH_10.json: what the campaign service costs.  The same small
   job matrix runs twice — directly (one forked Runner per job, no
   journal) and through an in-process daemon (WAL fsyncs, supervision,
   client-frame plumbing) — and the verdicts are machine-checked
   equal.  The wall-time ratio prices the durability machinery. *)

let service_matrix =
  [
    { Service.Jobspec.default with Service.Jobspec.test = "T1";
      num_sources = bench_sources };
    { Service.Jobspec.default with
      Service.Jobspec.peripheral = "uart"; test = "loopback" };
    { Service.Jobspec.default with
      Service.Jobspec.peripheral = "clint"; test = "timer";
      mode = Service.Jobspec.Random; trials = 64; seed = Some 7 };
  ]

let bench_temp_dir tag =
  let path = Filename.temp_file ("symsysc_bench_" ^ tag) "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec bench_rm_rf path =
  if Sys.is_directory path then begin
    Array.iter
      (fun n -> bench_rm_rf (Filename.concat path n))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let service_verdicts dir =
  List.mapi
    (fun i _ ->
       let path = Service.Runner.report_path ~journal_dir:dir (i + 1) in
       match Obs.Json.load path with
       | Ok doc ->
         Option.bind (Obs.Json.member "verdict" doc) Obs.Json.to_string_opt
         |> Option.value ~default:"missing"
       | Error _ -> "missing")
    service_matrix

let service_direct_run dir =
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i spec ->
       flush stdout;
       flush stderr;
       match Unix.fork () with
       | 0 ->
         Obs.Progress.disable ();
         let code =
           try
             Service.Runner.exec ~journal_dir:dir ~checkpoint_every_s:1.0
               ~id:(i + 1) ~attempt:1 ~budget_scale:1.0 spec
           with _ -> 1
         in
         Unix._exit code
       | pid -> ignore (Unix.waitpid [] pid))
    service_matrix;
  Unix.gettimeofday () -. t0

let service_daemon_run dir =
  (* Pre-load the queue, then run the daemon to idle with one job at a
     time — the same sequential schedule as the direct run. *)
  let wal, records, _ = Service.Wal.open_dir dir in
  let sup =
    Service.Supervisor.create ~wal ~job_retries:0 ~backoff_seed:0 records
  in
  List.iter (fun s -> ignore (Service.Supervisor.submit sup s)) service_matrix;
  Service.Wal.close wal;
  let listener = Symex.Transport.listen ~host:"127.0.0.1" ~port:0 () in
  let t0 = Unix.gettimeofday () in
  let code =
    Service.Daemon.run ~listener
      { (Service.Daemon.default_opts ~journal_dir:dir) with
        Service.Daemon.max_jobs = 1;
        exit_when_idle = true }
  in
  let wall = Unix.gettimeofday () -. t0 in
  Symex.Transport.close_listener listener;
  let journal_bytes =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".log")
    |> List.fold_left
         (fun acc n ->
            acc + (Unix.stat (Filename.concat dir n)).Unix.st_size)
         0
  in
  (code, wall, journal_bytes)

let write_service_json path =
  let direct_dir = bench_temp_dir "direct" in
  let daemon_dir = bench_temp_dir "daemon" in
  Fun.protect
    ~finally:(fun () ->
      (try bench_rm_rf direct_dir with _ -> ());
      try bench_rm_rf daemon_dir with _ -> ())
    (fun () ->
       let direct_wall = service_direct_run direct_dir in
       let direct_verdicts = service_verdicts direct_dir in
       let code, daemon_wall, journal_bytes = service_daemon_run daemon_dir in
       let daemon_verdicts = service_verdicts daemon_dir in
       let buf = Buffer.create 1024 in
       Buffer.add_string buf "{\"schema\":\"symsysc-bench-service-v1\",";
       Printf.bprintf buf "\"jobs\":[";
       List.iteri
         (fun i spec ->
            if i > 0 then Buffer.add_char buf ',';
            Printf.bprintf buf "\"%s\""
              (Obs.Export.escape_json (Service.Jobspec.describe spec)))
         service_matrix;
       Printf.bprintf buf "],\"direct\":{\"wall_s\":%.3f,\"verdicts\":[%s]},"
         direct_wall
         (String.concat ","
            (List.map (Printf.sprintf "\"%s\"") direct_verdicts));
       Printf.bprintf buf
         "\"daemon\":{\"wall_s\":%.3f,\"exit_code\":%d,\"journal_bytes\":%d,\"verdicts\":[%s]},"
         daemon_wall code journal_bytes
         (String.concat ","
            (List.map (Printf.sprintf "\"%s\"") daemon_verdicts));
       Printf.bprintf buf
         "\"summary\":{\"same_verdicts\":%b,\"clean_exit\":%b,\"overhead_ratio\":%.3f}}\n"
         (direct_verdicts = daemon_verdicts
         && not (List.mem "missing" direct_verdicts))
         (code = 0)
         (if direct_wall > 0.0 then daemon_wall /. direct_wall else 0.0);
       Obs.Json.write_atomic path (Buffer.contents buf))

let () =
  Format.printf "=== SymSysC benchmark harness ===@.@.";
  Format.printf "-- Table 1 workload (per-test exploration, %d sources) --@."
    bench_sources;
  benchmark_group "table1" table1_tests;
  Format.printf "@.-- Table 2 workload (time to first fault detection) --@.";
  benchmark_group "table2" table2_tests;
  Format.printf "@.-- Ablation: PK vs heavyweight kernel (501 activations) --@.";
  benchmark_group "kernel" kernel_tests;
  Format.printf "@.-- Ablation: integer vs float simulation time (10k ops) --@.";
  benchmark_group "sc_time" time_tests;
  Format.printf "@.-- Ablation: solver caches (24 queries) --@.";
  benchmark_group "solver" solver_tests;
  Format.printf
    "@.-- Ablation: constraint-independence slicing (Table 1 workload) --@.";
  benchmark_group "independence" independence_tests;
  Format.printf
    "@.-- Ablation: incremental scope solving (Table 1 workload) --@.";
  benchmark_group "incremental" incremental_tests;
  Format.printf
    "@.-- Ablation: snapshot forking vs prefix replay (Table 1 workload) --@.";
  benchmark_group "snapshots" snapshot_tests;
  Format.printf "@.-- Ablation: first error vs exhaustive exploration (T1) --@.";
  benchmark_group "exploration" exploration_tests;
  Format.printf "@.-- Scaling: parallel workers (T1 exploration) --@.";
  benchmark_group "scaling" scaling_tests;
  Format.printf "@.-- Baseline: symbolic vs random testing (fault IF6) --@.";
  benchmark_group "baseline" baseline_tests;
  Format.printf "@.-- Second peripheral: CLINT timer property --@.";
  benchmark_group "clint" clint_tests;
  Format.printf "@.-- Resilience: checkpoint cost (T4 workload) --@.";
  benchmark_group "resilience" resilience_tests;
  write_bench_json "BENCH_1.json";
  Format.printf "@.(machine-readable results written to BENCH_1.json)@.";
  write_independence_json "BENCH_2.json";
  Format.printf "(independence on/off comparison written to BENCH_2.json)@.";
  write_incremental_json "BENCH_7.json";
  Format.printf "(incremental on/off comparison written to BENCH_7.json)@.";
  write_snapshots_json "BENCH_9.json";
  Format.printf "(snapshot vs replay comparison written to BENCH_9.json)@.";
  let scaling_rows = List.map scaling_campaign scaling_workers in
  write_scaling_json "BENCH_4.json" scaling_rows;
  Format.printf "(worker-scaling comparison written to BENCH_4.json)@.";
  let distributed_rows = List.map distributed_campaigns distributed_workers in
  write_distributed_json "BENCH_8.json" distributed_rows;
  Format.printf "(pipe vs loopback-TCP comparison written to BENCH_8.json)@.";
  write_service_json "BENCH_10.json";
  Format.printf "(campaign-service overhead written to BENCH_10.json)@.";
  Format.printf "@.worker scaling (Table 1 campaign, %d cores online):@."
    (online_cores ());
  Symsysc.Tables.print_scaling Format.std_formatter scaling_rows;

  (* ---- the actual table reproductions ---- *)
  let sources = getenv_int "SYMSYSC_SOURCES" (if smoke then 4 else 8) in
  let t5_len = getenv_int "SYMSYSC_T5_LEN" (if smoke then 8 else 16) in
  let scenario =
    Symsysc.Verify.scenario ~num_sources:sources ~t5_max_len:t5_len
      ~max_paths:
        (getenv_int "SYMSYSC_MAX_PATHS" (if smoke then 500 else 20_000))
      ()
  in
  Format.printf
    "@.=== Table 1: test results for the original PLIC (%d sources) ===@.@."
    sources;
  let reports = Symsysc.Verify.table1 scenario in
  Symsysc.Tables.print_table1 Format.std_formatter reports;
  Format.printf "@.where the solver time goes:@.";
  Symsysc.Tables.print_solver_breakdown Format.std_formatter reports;
  List.iter
    (fun (r : Symsysc.Report.t) ->
       List.iter
         (fun (e : Symex.Error.t) ->
            Format.printf "%s: %s (%s)@." r.Symsysc.Report.test_name
              e.Symex.Error.site
              (Symex.Error.kind_to_string e.Symex.Error.kind))
         r.Symsysc.Report.engine.Engine.errors)
    reports;
  Format.printf
    "@.=== Table 2: time until each bug/fault is found (%d sources) ===@.@."
    sources;
  let tests = List.map fst Symsysc.Tests.all in
  let detections = Symsysc.Verify.table2 ~tests scenario in
  Symsysc.Tables.print_table2 Format.std_formatter ~tests detections;
  Format.printf
    "@.(rows: tests; columns: original bugs F1-F6 and injected faults IF1-IF6)@."
