(* Write-ahead journal for the campaign job queue; see wal.mli. *)

module Json = Obs.Json

type record =
  | Submit of int * Json.t
  | Start of int * int
  | Checkpoint_ref of int * string
  | Finish of int * string * string
  | Fail of int * int * string
  | Shed of int * float
  | Cancel of int
  | Quarantine of int * int
  | Snapshot of Json.t

let record_to_json = function
  | Submit (id, spec) ->
    Json.Obj [ ("kind", Json.Str "submit"); ("id", Json.Int id);
               ("spec", spec) ]
  | Start (id, attempt) ->
    Json.Obj [ ("kind", Json.Str "start"); ("id", Json.Int id);
               ("attempt", Json.Int attempt) ]
  | Checkpoint_ref (id, path) ->
    Json.Obj [ ("kind", Json.Str "checkpoint-ref"); ("id", Json.Int id);
               ("path", Json.Str path) ]
  | Finish (id, verdict, report) ->
    Json.Obj [ ("kind", Json.Str "finish"); ("id", Json.Int id);
               ("verdict", Json.Str verdict); ("report", Json.Str report) ]
  | Fail (id, attempt, reason) ->
    Json.Obj [ ("kind", Json.Str "fail"); ("id", Json.Int id);
               ("attempt", Json.Int attempt); ("reason", Json.Str reason) ]
  | Shed (id, scale) ->
    Json.Obj [ ("kind", Json.Str "shed"); ("id", Json.Int id);
               ("scale", Json.Float scale) ]
  | Cancel id -> Json.Obj [ ("kind", Json.Str "cancel"); ("id", Json.Int id) ]
  | Quarantine (id, attempts) ->
    Json.Obj [ ("kind", Json.Str "quarantine"); ("id", Json.Int id);
               ("attempts", Json.Int attempts) ]
  | Snapshot state ->
    Json.Obj [ ("kind", Json.Str "snapshot"); ("state", state) ]

let record_of_json j =
  let int key = Option.bind (Json.member key j) Json.to_int_opt in
  let str key = Option.bind (Json.member key j) Json.to_string_opt in
  let flt key = Option.bind (Json.member key j) Json.to_float_opt in
  match str "kind" with
  | Some "submit" ->
    (match (int "id", Json.member "spec" j) with
     | Some id, Some spec -> Ok (Submit (id, spec))
     | _ -> Error "journal: bad submit record")
  | Some "start" ->
    (match (int "id", int "attempt") with
     | Some id, Some a -> Ok (Start (id, a))
     | _ -> Error "journal: bad start record")
  | Some "checkpoint-ref" ->
    (match (int "id", str "path") with
     | Some id, Some p -> Ok (Checkpoint_ref (id, p))
     | _ -> Error "journal: bad checkpoint-ref record")
  | Some "finish" ->
    (match (int "id", str "verdict", str "report") with
     | Some id, Some v, Some r -> Ok (Finish (id, v, r))
     | _ -> Error "journal: bad finish record")
  | Some "fail" ->
    (match (int "id", int "attempt", str "reason") with
     | Some id, Some a, Some r -> Ok (Fail (id, a, r))
     | _ -> Error "journal: bad fail record")
  | Some "shed" ->
    (match (int "id", flt "scale") with
     | Some id, Some s -> Ok (Shed (id, s))
     | _ -> Error "journal: bad shed record")
  | Some "cancel" ->
    (match int "id" with
     | Some id -> Ok (Cancel id)
     | None -> Error "journal: bad cancel record")
  | Some "quarantine" ->
    (match (int "id", int "attempts") with
     | Some id, Some a -> Ok (Quarantine (id, a))
     | _ -> Error "journal: bad quarantine record")
  | Some "snapshot" ->
    (match Json.member "state" j with
     | Some state -> Ok (Snapshot state)
     | None -> Error "journal: bad snapshot record")
  | Some k -> Error (Printf.sprintf "journal: unknown record kind %S" k)
  | None -> Error "journal: record without kind"

let frame r = Obs.Durable.seal (record_to_json r) ^ "\n"

(* ---- segments ---- *)

let segment_name n = Printf.sprintf "wal-%06d.log" n

let segment_of_name name =
  if String.length name = 14
     && String.sub name 0 4 = "wal-"
     && Filename.check_suffix name ".log"
  then int_of_string_opt (String.sub name 4 6)
  else None

type t = {
  dir : string;
  segment_bytes : int;
  mutable seg : int;          (* active segment index *)
  mutable fd : Unix.file_descr;
  mutable seg_bytes : int;    (* bytes in the active segment *)
}

let bytes t = t.seg_bytes
let segment_index t = t.seg
let needs_rotation t = t.seg_bytes > t.segment_bytes

(* One line of a segment -> record.  Returns None on any damage: the
   caller stops replaying the segment there. *)
let decode_line line =
  match Obs.Durable.unseal line with
  | Ok j -> Result.to_option (record_of_json j)
  | Error _ -> None

(* Replay one segment: records until the first damaged line, plus the
   count of bytes dropped after it (the damaged line and everything
   following — once framing is broken nothing later can be trusted). *)
let replay_segment path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic len)
  in
  let records = ref [] in
  let pos = ref 0 in
  let n = String.length contents in
  let damaged = ref false in
  while (not !damaged) && !pos < n do
    match String.index_from_opt contents !pos '\n' with
    | None -> damaged := true (* torn tail: no newline *)
    | Some nl ->
      let line = String.sub contents !pos (nl - !pos) in
      (match decode_line line with
       | Some r ->
         records := r :: !records;
         pos := nl + 1
       | None -> damaged := true)
  done;
  (List.rev !records, n - !pos)

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
      match segment_of_name name with
      | Some n -> Some (n, Filename.concat dir name)
      | None -> None)
  |> List.sort compare

(* A Snapshot record supersedes everything before it. *)
let compact records =
  let rec go acc = function
    | [] -> List.rev acc
    | (Snapshot _ as s) :: tl -> go [ s ] tl
    | r :: tl -> go (r :: acc) tl
  in
  go [] records

let open_dir ?(segment_bytes = 1 lsl 20) dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  (* Interrupted-rotation leftovers are not part of the journal. *)
  Array.iter
    (fun name ->
       if Filename.check_suffix name ".tmp" then
         try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir);
  let segments = list_segments dir in
  let records, dropped =
    List.fold_left
      (fun (acc, dropped) (_, path) ->
         let rs, d = replay_segment path in
         (acc @ rs, dropped + d))
      ([], 0) segments
  in
  let records = compact records in
  let seg =
    match List.rev segments with (n, _) :: _ -> n | [] -> 0
  in
  let path = Filename.concat dir (segment_name seg) in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let seg_bytes = (Unix.fstat fd).Unix.st_size in
  ({ dir; segment_bytes; seg; fd; seg_bytes }, records, dropped)

let append t r =
  let line = frame r in
  if Chaos.fire Chaos.Journal_truncate then begin
    (* A crash mid-append: half the frame reaches the disk and the
       writing process is gone.  Recovery must drop the torn tail. *)
    Symex.Transport.write_all t.fd (Bytes.unsafe_of_string line) 0
      (String.length line / 2);
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    Unix.kill (Unix.getpid ()) Sys.sigkill
  end;
  Symex.Transport.write_all t.fd (Bytes.unsafe_of_string line) 0
    (String.length line);
  Unix.fsync t.fd;
  t.seg_bytes <- t.seg_bytes + String.length line

let rotate t ~snapshot =
  let next = t.seg + 1 in
  let path = Filename.concat t.dir (segment_name next) in
  (* The new segment (snapshot included) becomes visible atomically and
     durably before any old segment is removed. *)
  Json.write_atomic path (frame (Snapshot snapshot));
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  let old = list_segments t.dir in
  List.iter
    (fun (n, p) -> if n < next then try Sys.remove p with Sys_error _ -> ())
    old;
  t.seg <- next;
  t.fd <- fd;
  t.seg_bytes <- (Unix.fstat fd).Unix.st_size

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
