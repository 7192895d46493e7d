(* The one durable record format; see durable.mli. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
       let i =
         Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
       in
       c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let crc_hex s = Printf.sprintf "0x%08lx" (crc32 s)

(* The line is checked byte for byte against this layout rather than
   parsed as a whole: the CRC then covers the record's bytes as they
   sit on disk, independent of how the parser reads them. *)
let head = "{\"crc\":\""
let mid = "\",\"rec\":"
let hex_len = 10

let seal j =
  let payload = Json.to_string j in
  head ^ crc_hex payload ^ mid ^ payload ^ "}"

let unseal line =
  let n = String.length line in
  let hex_at = String.length head in
  let rec_at = hex_at + hex_len + String.length mid in
  let slice pos len = String.sub line pos len in
  if n <= rec_at || slice 0 hex_at <> head
     || slice (hex_at + hex_len) (String.length mid) <> mid
     || line.[n - 1] <> '}'
  then Error "durable: malformed record framing"
  else begin
    let stored = slice hex_at hex_len in
    let payload = slice rec_at (n - rec_at - 1) in
    let actual = crc_hex payload in
    if stored <> actual then
      Error (Printf.sprintf "durable: crc mismatch (stored %s, computed %s)"
               stored actual)
    else Json.of_string payload
  end
