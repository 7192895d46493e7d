(* The telemetry layer: sink semantics, exporter output structure
   (Chrome trace JSON, JSONL, Prometheus text), metrics registry, and
   end-to-end event capture from an engine run, the PK scheduler and
   the TLM router. *)

module Engine = Symex.Engine
module Expr = Smt.Expr

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser — just enough to validate exporter output.    *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some ('"' | '\\' | '/') ->
           Buffer.add_char buf (Option.get (peek ())); advance ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             (match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
              | _ -> fail "bad \\u escape")
           done;
           Buffer.add_char buf '?'
         | _ -> fail "bad escape");
        go ()
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let string_member key j =
  match member key j with Some (Str s) -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

(* Capture the events emitted while [f] runs. *)
let capture f =
  Obs.Sink.reset ();
  let r = Obs.Export.recorder () in
  let result = Fun.protect ~finally:(fun () -> Obs.Sink.reset ()) f in
  (Obs.Export.events r, result)

let names events = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.name) events
let cats events = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.cat) events

(* A tiny exploration: one symbolic branch, two completed paths. *)
let two_path_testbench () =
  let x = Engine.fresh "obs_x" 8 in
  if Engine.branch ~site:"obs:test" (Expr.ult x (Expr.int ~width:8 16)) then
    ignore (Expr.add x x)
  else ignore (Expr.sub x x)

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)

let test_sink_disabled_without_subscribers () =
  Obs.Sink.reset ();
  Alcotest.(check bool) "disabled with no subscribers" false (Obs.Sink.on ());
  Obs.Sink.instant ~cat:"t" "dropped-silently";
  let id = Obs.Sink.subscribe (fun _ -> ()) in
  Alcotest.(check bool) "enabled after subscribe" true (Obs.Sink.on ());
  Obs.Sink.unsubscribe id;
  Alcotest.(check bool) "disabled after unsubscribe" false (Obs.Sink.on ())

let test_sink_with_span () =
  let events, value =
    capture (fun () ->
        Obs.Sink.with_span ~cat:"t" "work" (fun () ->
            Obs.Sink.instant ~cat:"t" "inner";
            42))
  in
  Alcotest.(check int) "result passes through" 42 value;
  Alcotest.(check (list string)) "inner then span" [ "inner"; "work" ]
    (names events);
  match events with
  | [ _; { Obs.Event.kind = Obs.Event.Complete dur; ts; _ } ] ->
    Alcotest.(check bool) "non-negative duration" true (dur >= 0.0);
    Alcotest.(check bool) "stamped at start" true (ts >= 0.0)
  | _ -> Alcotest.fail "expected a Complete span"

(* ------------------------------------------------------------------ *)
(* Engine / solver / kernel / tlm event capture                        *)

let test_engine_events () =
  let events, report =
    capture (fun () -> Engine.Session.run (Engine.Session.make ()) two_path_testbench)
  in
  Alcotest.(check int) "two paths" 2 report.Engine.paths;
  let ns = names events in
  List.iter
    (fun expected ->
       Alcotest.(check bool) ("has " ^ expected) true (List.mem expected ns))
    [ "run:start"; "path"; "fork"; "query"; "run:end" ];
  (* Every path span is balanced. *)
  let count name k =
    List.length
      (List.filter
         (fun (e : Obs.Event.t) ->
            e.Obs.Event.name = name && e.Obs.Event.kind = k)
         events)
  in
  Alcotest.(check int) "path begins" 2 (count "path" Obs.Event.Span_begin);
  Alcotest.(check int) "path ends" 2 (count "path" Obs.Event.Span_end);
  (* Timestamps are monotone. *)
  let rec monotone = function
    | (a : Obs.Event.t) :: (b : Obs.Event.t) :: rest ->
      a.Obs.Event.ts <= b.Obs.Event.ts && monotone (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "monotone timestamps" true
    (monotone
       (List.filter
          (fun (e : Obs.Event.t) ->
             match e.Obs.Event.kind with
             | Obs.Event.Complete _ -> false  (* backdated to span start *)
             | _ -> true)
          events))

let test_scheduler_events () =
  let events, () =
    capture (fun () ->
        let sched = Pk.Scheduler.create () in
        let ev = Pk.Event.make "obs-ev" in
        Pk.Scheduler.spawn sched
          (Pk.Process.make "obs-proc" (fun () -> Pk.Process.Wait_event ev));
        Pk.Scheduler.run_ready sched;
        Pk.Scheduler.notify_at sched ev (Pk.Sc_time.ns 10);
        ignore (Pk.Scheduler.step sched);
        Pk.Scheduler.notify_delta sched ev;
        Pk.Scheduler.run_ready sched)
  in
  let ns = names events in
  List.iter
    (fun expected ->
       Alcotest.(check bool) ("has " ^ expected) true (List.mem expected ns))
    [ "resume"; "event:fired"; "time-advance"; "delta-cycle" ];
  Alcotest.(check bool) "all kernel category" true
    (List.for_all (fun c -> c = "kernel") (cats events))

let test_router_events () =
  let events, () =
    capture (fun () ->
        let router = Tlm.Router.create ~name:"obs-bus" () in
        Tlm.Router.add_target router ~name:"mem" ~base:0 ~size:16
          (fun p delay ->
             p.Tlm.Payload.response <- Tlm.Payload.Ok_response;
             delay);
        let p =
          Tlm.Payload.make_write32 ~addr:(Symex.Value.of_int 4)
            ~value:(Symex.Value.of_int 7)
        in
        ignore (Tlm.Router.transport router p Pk.Sc_time.zero))
  in
  let txn =
    List.filter (fun (e : Obs.Event.t) -> e.Obs.Event.name = "txn") events
  in
  (match txn with
   | [ { Obs.Event.kind = Obs.Event.Span_begin; _ };
       ({ Obs.Event.kind = Obs.Event.Span_end; _ } as e) ] ->
     Alcotest.(check (option string)) "target recorded" (Some "mem")
       (List.assoc_opt "target" e.Obs.Event.args
        |> Option.map (function Obs.Event.Str s -> s | _ -> "?"))
   | _ -> Alcotest.fail "expected one balanced txn span");
  Alcotest.(check bool) "tlm category present" true
    (List.mem "tlm" (cats events))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let captured_run_events () =
  fst (capture (fun () -> Engine.Session.run (Engine.Session.make ()) two_path_testbench))

let test_chrome_trace_structure () =
  let events = captured_run_events () in
  let doc = parse_json (Obs.Export.to_chrome events) in
  let trace_events =
    match member "traceEvents" doc with
    | Some (Arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "non-empty" true (trace_events <> []);
  (* metadata rows + one row per event *)
  let data_rows =
    List.filter (fun e -> string_member "ph" e <> Some "M") trace_events
  in
  Alcotest.(check int) "one row per event" (List.length events)
    (List.length data_rows);
  List.iter
    (fun row ->
       Alcotest.(check bool) "has name" true (string_member "name" row <> None);
       Alcotest.(check bool) "has ph" true (string_member "ph" row <> None);
       (match string_member "ph" row with
        | Some ("B" | "E" | "i" | "X" | "C" | "M") -> ()
        | Some ph -> Alcotest.failf "unexpected phase %s" ph
        | None -> ());
       match member "ts" row with
       | Some (Num ts) ->
         Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
       | _ -> Alcotest.fail "missing ts")
    data_rows;
  (* X rows carry a duration. *)
  List.iter
    (fun row ->
       if string_member "ph" row = Some "X" then
         match member "dur" row with
         | Some (Num d) -> Alcotest.(check bool) "dur >= 0" true (d >= 0.0)
         | _ -> Alcotest.fail "X row without dur")
    data_rows;
  (* Thread-name metadata covers every category in the stream. *)
  let meta_names =
    List.filter_map
      (fun row ->
         if string_member "ph" row = Some "M" then
           Option.bind (member "args" row) (string_member "name")
         else None)
      trace_events
  in
  List.iter
    (fun c ->
       Alcotest.(check bool) ("thread for " ^ c) true (List.mem c meta_names))
    (List.sort_uniq String.compare (cats events))

let test_jsonl_structure () =
  let events = captured_run_events () in
  let lines =
    String.split_on_char '\n' (Obs.Export.to_jsonl events)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" (List.length events)
    (List.length lines);
  List.iter
    (fun line ->
       let j = parse_json line in
       Alcotest.(check bool) "is object" true
         (match j with Obj _ -> true | _ -> false);
       List.iter
         (fun key ->
            Alcotest.(check bool) ("has " ^ key) true (member key j <> None))
         [ "ts"; "cat"; "name"; "ph"; "args" ])
    lines

let test_json_escaping () =
  Obs.Sink.reset ();
  let r = Obs.Export.recorder () in
  Obs.Sink.instant ~cat:"t" "weird\"name\\with\nnewline"
    ~args:[ ("msg", Obs.Event.Str "tab\there \"quoted\"") ];
  Obs.Sink.reset ();
  let events = Obs.Export.events r in
  let doc = parse_json (Obs.Export.to_chrome events) in
  (match member "traceEvents" doc with
   | Some (Arr rows) ->
     let data =
       List.find (fun row -> string_member "ph" row = Some "i") rows
     in
     Alcotest.(check (option string)) "name round-trips"
       (Some "weird\"name\\with\nnewline") (string_member "name" data)
   | _ -> Alcotest.fail "no traceEvents");
  List.iter (fun line -> ignore (parse_json line))
    (String.split_on_char '\n' (Obs.Export.to_jsonl events)
     |> List.filter (fun l -> l <> ""))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_duplicate_registration () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~help:"first help" "obs_dup_total" in
  (* Same help and empty help are idempotent lookups of the same
     instance; only a conflicting non-empty help or a type clash is a
     registration bug and fails fast. *)
  Obs.Metrics.inc (Obs.Metrics.counter ~help:"first help" "obs_dup_total");
  Obs.Metrics.inc (Obs.Metrics.counter "obs_dup_total");
  Alcotest.(check int) "one shared instance" 2 (Obs.Metrics.counter_value c);
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "conflicting help raises" true
    (raises (fun () -> Obs.Metrics.counter ~help:"second help" "obs_dup_total"));
  Alcotest.(check bool) "type clash raises" true
    (raises (fun () -> Obs.Metrics.gauge "obs_dup_total"));
  (* A first registration with empty help accepts one later non-empty
     help (it cannot change what was already rendered). *)
  ignore (Obs.Metrics.gauge "obs_dup_gauge");
  ignore (Obs.Metrics.gauge ~help:"late help" "obs_dup_gauge");
  Alcotest.(check bool) "histogram help clash raises" true
    (raises (fun () ->
         ignore (Obs.Metrics.histogram ~help:"a" "obs_dup_seconds");
         Obs.Metrics.histogram ~help:"b" "obs_dup_seconds"));
  Obs.Metrics.reset ()

let test_metrics_render () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~help:"test counter" "obs_test_total" in
  Obs.Metrics.inc c;
  Obs.Metrics.inc ~by:4 c;
  let g = Obs.Metrics.gauge "obs_test_gauge" in
  Obs.Metrics.set g 2.5;
  let h =
    Obs.Metrics.histogram ~buckets:[| 0.1; 1.0 |] "obs_test_seconds"
  in
  Obs.Metrics.observe h 0.05;
  Obs.Metrics.observe h 0.5;
  Obs.Metrics.observe h 5.0;
  let text = Obs.Metrics.render () in
  let has line = Alcotest.(check bool) line true
      (List.mem line (String.split_on_char '\n' text))
  in
  has "# HELP obs_test_total test counter";
  has "# TYPE obs_test_total counter";
  has "obs_test_total 5";
  has "# TYPE obs_test_gauge gauge";
  has "obs_test_gauge 2.5";
  has "# TYPE obs_test_seconds histogram";
  has "obs_test_seconds_bucket{le=\"0.1\"} 1";
  has "obs_test_seconds_bucket{le=\"1\"} 2";
  has "obs_test_seconds_bucket{le=\"+Inf\"} 3";
  has "obs_test_seconds_sum 5.55";
  has "obs_test_seconds_count 3";
  (* Every non-comment line is "name[{label}] value". *)
  List.iter
    (fun line ->
       if line <> "" && not (String.length line >= 1 && line.[0] = '#') then
         match String.index_opt line ' ' with
         | Some i ->
           let v = String.sub line (i + 1) (String.length line - i - 1) in
           Alcotest.(check bool) ("numeric value in: " ^ line) true
             (float_of_string_opt v <> None)
         | None -> Alcotest.failf "malformed line %s" line)
    (String.split_on_char '\n' text);
  Obs.Metrics.reset ()

let test_metrics_bridge () =
  Obs.Metrics.reset ();
  Obs.Sink.reset ();
  let id = Obs.Export.metrics_bridge () in
  ignore (Engine.Session.run (Engine.Session.make ()) two_path_testbench);
  Obs.Sink.unsubscribe id;
  let text = Obs.Metrics.render () in
  Alcotest.(check bool) "path counter" true
    (List.mem "engine_path_total 2" (String.split_on_char '\n' text));
  Alcotest.(check bool) "query duration histogram" true
    (List.exists
       (fun l ->
          String.length l >= 26
          && String.sub l 0 26 = "solver_query_seconds_count")
       (String.split_on_char '\n' text));
  Obs.Metrics.reset ();
  Obs.Sink.reset ()

(* ------------------------------------------------------------------ *)
(* Progress                                                            *)

let test_progress_lines () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Progress.configure ~out:ppf ~interval:1 ();
  ignore (Engine.Session.run (Engine.Session.make ()) two_path_testbench);
  Obs.Progress.disable ();
  Format.pp_print_flush ppf ();
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  (* header + one line per path *)
  Alcotest.(check int) "header + 2 stats lines" 3 (List.length lines);
  List.iter
    (fun l ->
       Alcotest.(check bool) ("obs-prefixed: " ^ l) true
         (String.length l >= 5 && String.sub l 0 5 = "[obs]"))
    lines;
  Alcotest.(check (option int)) "disabled afterwards" None
    (Obs.Progress.interval ())

let test_progress_due () =
  Obs.Progress.configure ~interval:3 ();
  Alcotest.(check bool) "not due at 1" false (Obs.Progress.due ~paths:1);
  Alcotest.(check bool) "due at 3" true (Obs.Progress.due ~paths:3);
  Alcotest.(check bool) "not due at 4" false (Obs.Progress.due ~paths:4);
  Alcotest.(check bool) "due at 6" true (Obs.Progress.due ~paths:6);
  Obs.Progress.disable ();
  Alcotest.(check bool) "never due when off" false (Obs.Progress.due ~paths:3)

(* ------------------------------------------------------------------ *)
(* Report integration                                                  *)

let test_report_breakdown () =
  let report = Engine.Session.run (Engine.Session.make ()) two_path_testbench in
  let s = report.Engine.solver_stats in
  Alcotest.(check bool) "queries counted" true
    (s.Smt.Solver.Stats.queries > 0);
  Alcotest.(check bool) "stage times sum below total" true
    (s.Smt.Solver.Stats.interval_time +. s.Smt.Solver.Stats.bitblast_time
     +. s.Smt.Solver.Stats.sat_time
     <= s.Smt.Solver.Stats.time +. 1e-6);
  let r = Symsysc.Report.make "OBS" report in
  let line = Format.asprintf "%a" Symsysc.Report.pp r in
  List.iter
    (fun needle ->
       let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i = i + nn <= nh
                        && (String.sub hay i nn = needle || go (i + 1)) in
         go 0
       in
       Alcotest.(check bool) ("pp mentions " ^ needle) true
         (contains line needle))
    [ "queries"; "cache" ];
  ignore (Format.asprintf "%a" Symsysc.Report.pp_solver_breakdown r)

(* ------------------------------------------------------------------ *)
(* Durable records                                                     *)

module J = Obs.Json

(* Floats at the edges of the printer: subnormal and normal minima,
   the %.17g switch to exponent form on both sides, and non-integral
   values just below 2^52.  Integral floats below 1e17 and non-finite
   ones are left out: the printer writes them as integers and null, so
   they read back as [Int] and [Null] by design. *)
let edge_floats =
  [ 5e-324; 2.2250738585072014e-308; epsilon_float; 1e-5; 1e-4; 0.1;
    1. /. 3.; -2. /. 3.; 123456.789; 1e15 +. 0.5; 4503599627370495.5;
    1e17; 2. ** 60.; max_float; -.max_float; -1e-300 ]

let json_gen =
  let open QCheck.Gen in
  let str =
    string_size ~gen:(oneof [ printable; char; oneofl [ '"'; '\\'; '\n' ] ])
      (0 -- 8)
  in
  let float =
    oneof
      [ oneofl edge_floats;
        map (fun f -> if Float.is_integer f then f +. 0.5 else f)
          (float_range (-1e6) 1e6) ]
  in
  sized_size (0 -- 3)
  @@ fix (fun self n ->
      let leaf =
        oneof
          [ pure J.Null; map (fun b -> J.Bool b) bool;
            map (fun i -> J.Int i) (oneof [ int; oneofl [ min_int; max_int; 0 ] ]);
            map (fun f -> J.Float f) float; map (fun s -> J.Str s) str ]
      in
      if n = 0 then leaf
      else
        frequency
          [ (1, leaf);
            (2, map (fun l -> J.List l) (list_size (0 -- 3) (self (n - 1))));
            (2, map (fun l -> J.Obj l)
                 (list_size (0 -- 3) (pair str (self (n - 1))))) ])

(* Seal/unseal round-trips every value, and rejects every single-byte
   change and every strict prefix of a sealed line. *)
let durable_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"durable: seal/unseal round-trip"
       (QCheck.make ~print:J.to_string json_gen)
       (fun j ->
          let line = Obs.Durable.seal j in
          let rejected s = Result.is_error (Obs.Durable.unseal s) in
          let n = String.length line in
          Obs.Durable.unseal line = Ok j
          && List.for_all (fun k -> rejected (String.sub line 0 k))
               (List.init n Fun.id)
          && List.for_all
               (fun i ->
                  List.for_all
                    (fun d ->
                       let b = Bytes.of_string line in
                       Bytes.set b i
                         (Char.chr ((Char.code line.[i] + d) land 0xFF));
                       rejected (Bytes.to_string b))
                    (List.init 255 (fun d -> d + 1)))
               (List.init n Fun.id)))

let suite =
  [
    ("sink: disabled without subscribers", `Quick,
     test_sink_disabled_without_subscribers);
    ("sink: with_span", `Quick, test_sink_with_span);
    ("events: engine run", `Quick, test_engine_events);
    ("events: scheduler", `Quick, test_scheduler_events);
    ("events: router", `Quick, test_router_events);
    ("export: chrome trace structure", `Quick, test_chrome_trace_structure);
    ("export: jsonl structure", `Quick, test_jsonl_structure);
    ("export: json escaping", `Quick, test_json_escaping);
    ("metrics: duplicate registration", `Quick,
     test_metrics_duplicate_registration);
    ("metrics: prometheus render", `Quick, test_metrics_render);
    ("metrics: event bridge", `Quick, test_metrics_bridge);
    ("progress: stats lines", `Quick, test_progress_lines);
    ("progress: due cadence", `Quick, test_progress_due);
    ("report: solver breakdown", `Quick, test_report_breakdown);
    durable_prop;
  ]
