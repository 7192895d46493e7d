(** The one durable record format.

    Every record the tree persists with an integrity check — campaign
    checkpoints and the service's write-ahead journal lines — is a
    single line

    {v {"crc":"0xXXXXXXXX","rec":<json>} v}

    where the CRC-32 (IEEE 802.3, the zlib polynomial; lower-case hex,
    eight digits) covers the exact bytes of [<json>] as written.  A
    CRC-32 catches every burst of up to 32 flipped bits, so any
    single-byte change to a sealed line, and any strict prefix of it,
    fails {!unseal}. *)

val crc32 : string -> int32

val seal : Json.t -> string
(** The sealed line, without a trailing newline. *)

val unseal : string -> (Json.t, string) result
(** Inverse of {!seal}: check the framing and the CRC, then parse the
    record.  No surrounding whitespace is accepted. *)
