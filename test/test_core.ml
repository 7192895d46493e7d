(* Integration tests: the paper's experiments at miniature scale — the
   symbolic tests T1..T5 against the original and fixed PLIC, the bug
   detection pattern of Tables 1 and 2, counterexample replay, and the
   verification orchestration. *)

module Engine = Symex.Engine
module Error = Symex.Error
module Search = Symex.Search
module Config = Plic.Config
module Fault = Plic.Fault
module Tests = Symsysc.Tests
module Verify = Symsysc.Verify
module Report = Symsysc.Report

(* Miniature scale keeps each exploration well under a second. *)
let scenario ?strategy () =
  Verify.scenario ~num_sources:4 ~t5_max_len:8 ~max_paths:3000 ?strategy ()

let errors_of (r : Report.t) = r.Report.engine.Engine.errors
let sites_of r = List.map (fun (e : Error.t) -> e.Error.site) (errors_of r)

let find_bugs bug r =
  List.filter (Verify.bug_matches bug) (errors_of r)

(* ------------------------------------------------------------------ *)
(* Table 1 pattern on the original PLIC                                *)

let table1_reports = lazy (Verify.table1 (scenario ()))

let verdicts () =
  List.map
    (fun (r : Report.t) -> (r.Report.test_name, r.Report.verdict))
    (Lazy.force table1_reports)

let test_table1_verdicts () =
  Alcotest.(check (list (pair string string)))
    "verdict pattern matches the paper"
    [
      ("T1", "Fail (1)"); ("T2", "Pass"); ("T3", "Pass");
      ("T4", "Fail (3)"); ("T5", "Fail (4)");
    ]
    (List.map
       (fun (name, v) -> (name, Report.verdict_to_string v))
       (verdicts ()))

let report_for name =
  List.find
    (fun (r : Report.t) -> r.Report.test_name = name)
    (Lazy.force table1_reports)

let test_t1_finds_f1 () =
  let r = report_for "T1" in
  Alcotest.(check (list string)) "exactly F1" [ "plic:trigger:bounds" ]
    (sites_of r);
  match errors_of r with
  | [ e ] -> Alcotest.(check bool) "abort kind" true (e.Error.kind = Error.Abort)
  | _ -> Alcotest.fail "expected one error"

let test_t4_finds_f2_f3_f4 () =
  let r = report_for "T4" in
  List.iter
    (fun bug ->
       Alcotest.(check bool)
         (Verify.bug_to_string bug ^ " found by T4")
         true
         (find_bugs bug r <> []))
    [ Verify.F2; Verify.F3; Verify.F4 ];
  Alcotest.(check (list string)) "and nothing else" []
    (List.filter
       (fun s -> not (List.mem s [ "reg:align"; "reg:mapping"; "reg:access" ]))
       (sites_of r))

let test_t5_finds_f3_f4_f5_f6 () =
  let r = report_for "T5" in
  List.iter
    (fun bug ->
       Alcotest.(check bool)
         (Verify.bug_to_string bug ^ " found by T5")
         true
         (find_bugs bug r <> []))
    [ Verify.F3; Verify.F4; Verify.F5; Verify.F6 ];
  Alcotest.(check bool) "F2 not found by T5 (write path)" true
    (find_bugs Verify.F2 r = [])

let test_exploration_exhausts () =
  List.iter
    (fun (r : Report.t) ->
       Alcotest.(check bool)
         (r.Report.test_name ^ " exhausted")
         true r.Report.engine.Engine.exhausted)
    (Lazy.force table1_reports)

let test_solver_dominates () =
  (* The paper observes solver time vastly dominating; at our scale it
     still dominates every test but the trivial ones. *)
  let r = report_for "T2" in
  Alcotest.(check bool) "solver fraction > 50%" true
    (Report.solver_fraction r > 0.5)

(* ------------------------------------------------------------------ *)
(* The fixed PLIC passes everything                                    *)

let test_fixed_passes_all () =
  let sc = scenario () in
  let params = Tests.with_variant Config.Fixed sc.Verify.params in
  List.iter
    (fun (name, test) ->
       let report = Engine.Session.run sc.Verify.session (test params) in
       Alcotest.(check int) (name ^ " clean on fixed PLIC") 0
         (List.length report.Engine.errors))
    Tests.all

(* ------------------------------------------------------------------ *)
(* Injected-fault detection pattern (Table 2)                          *)

let detects test fault =
  let sc = scenario () in
  let params =
    Tests.with_faults [ fault ] (Tests.with_variant Config.Fixed sc.Verify.params)
  in
  match Tests.by_name test with
  | None -> Alcotest.fail "unknown test"
  | Some t ->
    let session =
      { sc.Verify.session with Engine.Session.stop_after_errors = Some 1 }
    in
    let report = Engine.Session.run session (t params) in
    report.Engine.errors <> []

let test_fault_detection_pattern () =
  (* The populated cells of the paper's Table 2. *)
  List.iter
    (fun (test, fault) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s detects %s" test (Fault.to_string fault))
         true (detects test fault))
    [
      ("T1", Fault.IF1); ("T1", Fault.IF2); ("T1", Fault.IF4); ("T1", Fault.IF5);
      ("T2", Fault.IF2); ("T2", Fault.IF3); ("T2", Fault.IF5);
      ("T3", Fault.IF6);
    ];
  (* And a few of its empty cells. *)
  List.iter
    (fun (test, fault) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s must miss %s" test (Fault.to_string fault))
         false (detects test fault))
    [
      ("T1", Fault.IF3); ("T1", Fault.IF6);
      ("T3", Fault.IF2); ("T3", Fault.IF5);
      ("T4", Fault.IF1); ("T5", Fault.IF6);
    ]

let test_table2_shape () =
  let sc = scenario () in
  let detections = Verify.table2 ~tests:[ "T1"; "T3" ] sc in
  (* 6 original bugs + 6 faults = 12 rows, each with 2 test columns *)
  Alcotest.(check int) "rows" 12 (List.length detections);
  List.iter
    (fun (d : Verify.detection) ->
       Alcotest.(check int) "columns" 2 (List.length d.Verify.per_test))
    detections;
  let cell bug test =
    let d =
      List.find (fun d -> Verify.bug_to_string d.Verify.bug = bug) detections
    in
    List.assoc test d.Verify.per_test
  in
  Alcotest.(check bool) "T1 finds F1" true (cell "F1" "T1" <> None);
  Alcotest.(check bool) "T3 misses F1" true (cell "F1" "T3" = None);
  Alcotest.(check bool) "T3 finds IF6" true (cell "IF6" "T3" <> None)

(* ------------------------------------------------------------------ *)
(* Counterexample replay                                               *)

let test_replay_f1_counterexample () =
  let sc = scenario () in
  let params = Tests.with_faults [] sc.Verify.params in
  let r = Verify.run_test sc "T1" in
  match errors_of r with
  | [ err ] ->
    (match Engine.replay err.Error.counterexample (Tests.t1 params) with
     | Some (Ok replayed) ->
       Alcotest.(check string) "replay aborts at the same site"
         "plic:trigger:bounds" replayed.Error.site
     | Some (Error msg) -> Alcotest.failf "replay diverged: %s" msg
     | None -> Alcotest.fail "replay found no failure")
  | _ -> Alcotest.fail "expected exactly one T1 error"

(* ------------------------------------------------------------------ *)
(* Strategies agree on findings                                        *)

let test_strategies_agree_on_t1 () =
  List.iter
    (fun strategy ->
       let sc = scenario ~strategy () in
       let r = Verify.run_test sc "T1" in
       Alcotest.(check (list string))
         (Search.strategy_to_string strategy ^ " finds F1")
         [ "plic:trigger:bounds" ] (sites_of r))
    Search.all_strategies

(* ------------------------------------------------------------------ *)
(* Orchestration odds and ends                                         *)

let test_unknown_test_rejected () =
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Verify.run_test: unknown test T9") (fun () ->
        ignore (Verify.run_test (scenario ()) "T9"))

let test_bug_names_roundtrip () =
  List.iter
    (fun bug ->
       match Verify.bug_of_string (Verify.bug_to_string bug) with
       | Some b ->
         Alcotest.(check string) "roundtrip" (Verify.bug_to_string bug)
           (Verify.bug_to_string b)
       | None -> Alcotest.fail "roundtrip failed")
    Verify.all_bugs

(* ------------------------------------------------------------------ *)
(* Scheduler-order exploration                                         *)

let test_order_exploration_covers_all_schedules () =
  let orders = ref [] in
  let report =
    Engine.Session.run (Engine.Session.make ()) (fun () ->
        let sched = Pk.Scheduler.create () in
        Symsysc.Order.explore_schedules sched;
        let log = ref [] in
        let mk name =
          Pk.Process.make name (fun () ->
              log := name :: !log;
              Pk.Process.Terminate)
        in
        Pk.Scheduler.spawn sched (mk "a");
        Pk.Scheduler.spawn sched (mk "b");
        Pk.Scheduler.spawn sched (mk "c");
        Pk.Scheduler.run_ready sched;
        orders := List.rev !log :: !orders)
  in
  Alcotest.(check int) "3! schedules" 6 report.Engine.paths_completed;
  Alcotest.(check int) "all distinct" 6
    (List.length (List.sort_uniq compare !orders))

let test_order_exploration_property_holds () =
  (* The PLIC's delivery outcome must not depend on the order in which
     two same-instant triggers are processed. *)
  let claims = ref [] in
  let report =
    Engine.Session.run (Engine.Session.make ()) (fun () ->
        let sched = Pk.Scheduler.create () in
        Symsysc.Order.explore_schedules sched;
        let cfg = Config.scaled ~num_sources:4 in
        let dut = Plic.create ~variant:Config.Fixed cfg sched in
        let hart = Plic.Hart.create () in
        Plic.connect_hart dut 0 hart;
        (* Two producers racing in the same evaluation phase. *)
        let trigger id =
          Pk.Process.make (Printf.sprintf "src%d" id) (fun () ->
              Plic.trigger_interrupt dut (Symex.Value.of_int id);
              Pk.Process.Terminate)
        in
        Pk.Scheduler.spawn sched (trigger 2);
        Pk.Scheduler.spawn sched (trigger 3);
        Pk.Scheduler.run_ready sched;
        Plic.set_enable_all dut;
        Plic.set_priority dut 2 (Symex.Value.of_int 5);
        Plic.set_priority dut 3 (Symex.Value.of_int 1);
        ignore (Pk.Scheduler.step sched);
        Engine.check ~site:"order:notified"
          (Smt.Expr.bool hart.Plic.Hart.was_triggered);
        (* the higher-priority source wins regardless of race order *)
        let duv = { Symsysc.Testbench.sched; dut; hart } in
        let claimed = Symsysc.Testbench.claim_interrupt duv in
        claims := claimed :: !claims;
        Engine.check ~site:"order:winner"
          (Symex.Value.eq claimed (Symex.Value.of_int 2)))
  in
  (* the initial batch holds three processes (the PLIC run thread and
     the two producers): 3! interleavings *)
  Alcotest.(check int) "all interleavings explored" 6
    report.Engine.paths_completed;
  Alcotest.(check int) "no order-dependent behaviour" 0
    (List.length report.Engine.errors)

(* ------------------------------------------------------------------ *)
(* Driver programs                                                     *)

let plic_bus () =
  let sched = Pk.Scheduler.create () in
  let cfg = Config.scaled ~num_sources:4 in
  let dut = Plic.create ~variant:Config.Fixed cfg sched in
  let hart = Plic.Hart.create () in
  Plic.connect_hart dut 0 hart;
  let bus = Tlm.Router.create ~name:"bus" () in
  Tlm.Router.add_target bus ~name:"plic" ~base:0 ~size:Config.addr_window
    (Plic.transport dut);
  Pk.Scheduler.run_ready sched;
  (sched, dut, hart, Tlm.Router.transport bus)

let test_driver_concrete_program () =
  let sched, dut, hart, bus = plic_bus () in
  let open Symsysc.Driver in
  let env =
    Symsysc.Driver.run ~sched ~bus
      [
        Write32 { addr = Config.enable_base; value = Const (-1) };
        Write32 { addr = Config.priority_base; value = Const 3 };
        Write32 { addr = Config.threshold_base; value = Const 0 };
      ]
  in
  ignore env;
  Plic.trigger_interrupt dut (Symex.Value.of_int 1);
  let env =
    Symsysc.Driver.run ~sched ~bus
      [
        Step;
        Read32 { addr = Config.claim_base; into = "claimed" };
        Check
          ( "driver:claimed-1",
            fun env ->
              Symex.Value.eq (Symsysc.Driver.get env "claimed")
                (Symex.Value.of_int 1) );
        Write32 { addr = Config.claim_base; value = Reg "claimed" };
      ]
  in
  Alcotest.(check bool) "hart notified" true hart.Plic.Hart.was_triggered;
  Alcotest.(check bool) "claimed bound" true
    (Symsysc.Driver.get env "claimed" <> Symex.Value.zero)

let test_driver_symbolic_program () =
  (* The masking property written as a driver program, split around the
     wire-side trigger and sharing one environment. *)
  let report =
    Engine.Session.run (Engine.Session.make ()) (fun () ->
        let sched, dut, hart, bus = plic_bus () in
        let open Symsysc.Driver in
        let env =
          Symsysc.Driver.run ~sched ~bus
            [
              Write32 { addr = Config.enable_base; value = Const (-1) };
              Write32 { addr = Config.priority_base; value = Sym "prio" };
              Assume
                ( "prio<=31",
                  fun env ->
                    Symex.Value.le (Symsysc.Driver.get env "prio")
                      (Symex.Value.of_int 31) );
              Write32 { addr = Config.threshold_base; value = Sym "th" };
              Assume
                ( "th<=31",
                  fun env ->
                    Symex.Value.le (Symsysc.Driver.get env "th")
                      (Symex.Value.of_int 31) );
            ]
        in
        Plic.trigger_interrupt dut (Symex.Value.of_int 1);
        ignore (Pk.Scheduler.step sched);
        if hart.Plic.Hart.was_triggered then
          ignore
            (Symsysc.Driver.run ~env ~sched ~bus
               [
                 Check
                   ( "driver:masking",
                     fun env ->
                       Smt.Expr.and_
                         (Symex.Value.ne
                            (Symsysc.Driver.get env "prio")
                            Symex.Value.zero)
                         (Symex.Value.gt
                            (Symsysc.Driver.get env "prio")
                            (Symsysc.Driver.get env "th")) );
               ]))
  in
  Alcotest.(check int) "masking holds on the fixed PLIC" 0
    (List.length report.Engine.errors)

let test_driver_repeat_and_pp () =
  let open Symsysc.Driver in
  let program =
    [
      Repeat (3, [ Write32 { addr = 0x10; value = Const 5 }; Step ]);
      Read32 { addr = 0x10; into = "x" };
    ]
  in
  let rendered = Format.asprintf "%a" Symsysc.Driver.pp_program program in
  Alcotest.(check bool) "mentions repeat" true
    (String.length rendered > 0
     && String.sub rendered 0 8 = "repeat 3")

let test_driver_error_response_flagged () =
  let sched, _, _, bus = plic_bus () in
  let open Symsysc.Driver in
  Alcotest.check_raises "unmapped access flagged"
    (Engine.Check_failed "driver:response") (fun () ->
        ignore
          (Symsysc.Driver.run ~sched ~bus
             [ Read32 { addr = 0x9999_0000; into = "x" } ]))

let test_explain_known_sites () =
  let r = report_for "T1" in
  (match errors_of r with
   | [ e ] ->
     (match Symsysc.Explain.lookup e with
      | Some ex ->
        Alcotest.(check bool) "attributed to F1" true
          (ex.Symsysc.Explain.bug = Some Verify.F1)
      | None -> Alcotest.fail "F1 must have an explanation")
   | _ -> Alcotest.fail "expected one T1 error");
  (* all paper bugs have knowledge-base entries *)
  List.iter
    (fun site ->
       let err =
         {
           Error.kind = Error.Abort;
           site;
           message = "";
           counterexample = [];
           path_id = 0;
           instructions = 0;
           found_after = 0.0;
           validated = true;
         }
       in
       Alcotest.(check bool) (site ^ " explained") true
         (Symsysc.Explain.lookup err <> None))
    [ "plic:trigger:bounds"; "reg:align"; "reg:mapping"; "reg:access";
      "reg:memcpy:read"; "reg:memcpy:write"; "plic:claim:eip" ]

let test_duration_format () =
  Alcotest.(check string) "sub-second" "0.50s" (Symsysc.Tables.format_duration 0.5);
  Alcotest.(check string) "seconds" "3s" (Symsysc.Tables.format_duration 2.2);
  Alcotest.(check string) "minutes" "2m" (Symsysc.Tables.format_duration 65.0);
  Alcotest.(check string) "hours" "24h" (Symsysc.Tables.format_duration 86400.0)

(* Every run prunes the hash-cons terms over its own variables, so
   back-to-back runs in one process leave the table the same size — and
   since a pruned term could never have been looked up again, the second
   run is the same run as the first, down to the solver counters. *)
let test_repeated_runs_prune () =
  let run () =
    let r = Verify.run_test (scenario ()) "t1" in
    (r, Smt.Expr.term_count ())
  in
  let r1, n1 = run () in
  let r2, n2 = run () in
  Alcotest.(check int) "term table size after each run" n1 n2;
  Alcotest.(check (list string)) "reports agree" []
    (Symsysc.Diff.compare_reports (Report.to_json r1) (Report.to_json r2));
  let counters (r : Report.t) =
    { r.Report.engine.Engine.solver_stats with
      Smt.Solver.Stats.time = 0.0; interval_time = 0.0; bitblast_time = 0.0;
      sat_time = 0.0 }
  in
  Alcotest.(check bool) "solver counters identical" true
    (counters r1 = counters r2)

let suite =
  [
    ("table1: verdict pattern", `Slow, test_table1_verdicts);
    ("table1: T1 finds exactly F1", `Slow, test_t1_finds_f1);
    ("table1: T4 finds F2 F3 F4", `Slow, test_t4_finds_f2_f3_f4);
    ("table1: T5 finds F3 F4 F5 F6", `Slow, test_t5_finds_f3_f4_f5_f6);
    ("table1: exploration exhausts", `Slow, test_exploration_exhausts);
    ("table1: solver time dominates", `Slow, test_solver_dominates);
    ("fixed PLIC passes all tests", `Slow, test_fixed_passes_all);
    ("table2: fault detection pattern", `Slow, test_fault_detection_pattern);
    ("table2: matrix shape", `Slow, test_table2_shape);
    ("replay: F1 counterexample reproduces", `Slow,
     test_replay_f1_counterexample);
    ("strategies agree on T1 findings", `Slow, test_strategies_agree_on_t1);
    ("order exploration: all schedules covered", `Quick,
     test_order_exploration_covers_all_schedules);
    ("order exploration: PLIC order-independent", `Quick,
     test_order_exploration_property_holds);
    ("orchestration: unknown test rejected", `Quick, test_unknown_test_rejected);
    ("orchestration: bug name roundtrip", `Quick, test_bug_names_roundtrip);
    ("orchestration: duration format", `Quick, test_duration_format);
    ("pruning: repeated runs keep the term table flat", `Quick,
     test_repeated_runs_prune);
    ("explain: known sites attributed", `Slow, test_explain_known_sites);
    ("driver: concrete program", `Quick, test_driver_concrete_program);
    ("driver: symbolic masking program", `Quick, test_driver_symbolic_program);
    ("driver: repeat and pretty-printing", `Quick, test_driver_repeat_and_pp);
    ("driver: error responses flagged", `Quick,
     test_driver_error_response_flagged);
  ]
