(* Layer probes that no end-to-end step isolates: the guest memory's
   word and byte accesses and the JASan shadow's poison and lookup
   primitives, driven by a seeded address stream. *)

module Memory = Jt_mem.Memory
module Shadow = Jt_jasan.Shadow

let accesses = 100_000
let region = 1 lsl 20
let base = 0x100000

(* Mostly short forward strides (array walks), with a random jump one
   access in eight (pointer chasing), all word-aligned. *)
let stream ~seed =
  let rng = Jt_fuzz.Fuzz.Rng.make (seed + 77) in
  let a = Array.make accesses 0 in
  let cur = ref 0 in
  for i = 0 to accesses - 1 do
    (if Jt_fuzz.Fuzz.Rng.int rng 8 = 0 then cur := Jt_fuzz.Fuzz.Rng.int rng region
     else cur := (!cur + (4 * (1 + Jt_fuzz.Fuzz.Rng.int rng 4))) mod region);
    a.(i) <- base + (!cur land lnot 3)
  done;
  a

(* Returns a checksum so the reads cannot be optimized away, and the
   number of operations of each timed loop. *)
let mem (step : Timeline.step) addrs =
  let m =
    step.step "mem.fill" (fun () ->
        let m = Memory.create () in
        for i = 0 to (region / 4) - 1 do
          Memory.write32 m (base + (4 * i)) i
        done;
        m)
  in
  let sum = ref 0 in
  step.step "mem.read32" (fun () ->
      Array.iter (fun a -> sum := !sum + Memory.read32 m a) addrs);
  step.step "mem.write32" (fun () -> Array.iter (fun a -> Memory.write32 m a a) addrs);
  step.step "mem.read8" (fun () ->
      Array.iter (fun a -> sum := !sum + Memory.read8 m (a + 1)) addrs);
  !sum

let shadow_ops = 20_000

(* Poison a 64-byte redzone at each of the first [shadow_ops] stream
   addresses, then ask for the first poisoned byte of an 8-byte access at
   each address shifted by 32 (half of them land in a redzone). *)
let shadow (step : Timeline.step) addrs =
  let sh = step.step "shadow.create" Shadow.create in
  step.step "shadow.poison" (fun () ->
      for i = 0 to shadow_ops - 1 do
        Shadow.poison sh addrs.(i) ~len:64 Shadow.Heap_redzone
      done);
  let hits = ref 0 in
  step.step "shadow.first_poisoned" (fun () ->
      for i = 0 to shadow_ops - 1 do
        if Shadow.first_poisoned sh (addrs.(i) + 32) ~len:8 <> None then incr hits
      done);
  !hits
