(* Two parts, because the measured work slows with both kinds of
   contention.  [walk] stays in L2: a hash-driven walk over a read-only
   256 KiB byte table with data-dependent branches and stores into a
   32 KiB int table, the mix of an interpreter loop.  [scatter] does
   dependent read-modify-writes across an 8 MiB byte array, four times the
   L2, so it slows when neighbours contend for the shared cache and
   memory, as the collector's and the analyses' heap traffic does.
   [walk] takes about four fifths of the time. *)
let table_bytes = 1 lsl 18
let slots = 1 lsl 12
let walk_steps = 250_000
let field_bytes = 1 lsl 23
let scatter_steps = 150_000

(* Filled once from a fixed linear congruential stream: the kernel reads
   the same bytes on every pass. *)
let table =
  let b = Bytes.create table_bytes in
  let x = ref 12345 in
  for i = 0 to table_bytes - 1 do
    x := (!x * 1103515245 + 12345) land 0x7fffffff;
    Bytes.unsafe_set b i (Char.unsafe_chr ((!x lsr 16) land 0xff))
  done;
  b

let acc = Array.make slots 0

(* Outside the OCaml heap: the collector never scans or paces on it. *)
let field =
  let f = Bigarray.(Array1.create int8_unsigned c_layout) field_bytes in
  Bigarray.Array1.fill f 1;
  f

let walk () =
  let h = ref 0x2545f491 in
  let sum = ref 0 in
  for i = 0 to walk_steps - 1 do
    h := (!h * 0x5bd1e995 + i) land 0x3fffffff;
    let v = Char.code (Bytes.unsafe_get table (!h land (table_bytes - 1))) in
    let s = (!h lsr 7) land (slots - 1) in
    if v land 1 = 0 then Array.unsafe_set acc s (Array.unsafe_get acc s + v)
    else sum := !sum + v;
    if v > 200 then h := !h lxor (v lsl 9)
  done;
  !sum

(* Every cell holds a value in 1..7 before and after a pass, so the
   checksum is the same on every call. *)
let scatter () =
  let h = ref 0x1b873593 in
  let sum = ref 0 in
  for i = 0 to scatter_steps - 1 do
    h := (!h * 0x5bd1e995 + i) land 0x3fffffff;
    let j = !h land (field_bytes - 1) in
    let v = Bigarray.Array1.unsafe_get field j in
    sum := !sum + v;
    Bigarray.Array1.unsafe_set field j ((v land 6) lor 1)
  done;
  !sum

let run () = walk () + scatter ()

let nominal_s = 0.0025

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The first pass refills the caches the measured item evicted, so the
   timed pass sees the host's speed rather than what ran just before. *)
let time () =
  ignore (Sys.opaque_identity (run ()));
  let t0 = now () in
  ignore (Sys.opaque_identity (run ()));
  now () -. t0
