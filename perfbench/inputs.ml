(* Seeded inputs of the three workloads.  The seed goes through a
   splitmix64 stream ([Jt_fuzz.Fuzz.Rng]), so the same seed always gives
   the same draw and the same fuzz cases. *)

open Jt_workloads
module Rng = Jt_fuzz.Fuzz.Rng

(* Strata of the run-spec draw: language, split by whether the sheet has
   stencil passes (the accesses JASan cannot hoist, which set most of its
   slowdown).  cactusADM, the dlopen-heavy sheet, is always drawn. *)
let stratum (s : Sheet.t) = (s.s_lang, s.s_stencil > 0)

let forced = "cactusADM"

(* A third of each stratum, at least one sheet, without replacement. *)
let spec_draw ~seed =
  let rng = Rng.make (seed * 2 + 1) in
  let strata = ref [] in
  List.iter
    (fun (s : Sheet.t) ->
      if s.s_name <> forced then
        let k = stratum s in
        strata :=
          (k, s :: Option.value ~default:[] (List.assoc_opt k !strata))
          :: List.remove_assoc k !strata)
    Sheet.all;
  let pick members =
    let a = Array.of_list (List.rev members) in
    let n = Array.length a in
    let want = max 1 ((n + 2) / 3) in
    for i = 0 to want - 1 do
      let j = i + Rng.int rng (n - i) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list (Array.sub a 0 want)
  in
  let chosen =
    Sheet.find forced
    :: List.concat_map (fun (_, members) -> pick members) (List.sort (fun (a, _) (b, _) -> compare a b) !strata)
  in
  (* Figure order, so a draw reads like the paper's tables. *)
  List.filter (fun (s : Sheet.t) -> List.memq s chosen) Sheet.all

(* Fuzz corpora: [seeds] consecutive generator seeds (six cases each)
   from a base derived from the benchmark seed.  [salt] keeps the harden
   and verdicts corpora apart. *)
let fuzz_cases ~salt ~seeds ~seed =
  let rng = Rng.make ((seed * 1_000_003) + salt) in
  Jt_fuzz.Fuzz.cases_of ~base_seed:(1 + Rng.int rng 1_000_000) ~seeds

let verdict_cases ~seed = fuzz_cases ~salt:17 ~seeds:30 ~seed
let harden_cases ~seed = fuzz_cases ~salt:29 ~seeds:10 ~seed

(* Every unique module (by content digest) any of the sheets can reach:
   mains, libraries, the loader and dlopen'd plugins. *)
let registry_modules () =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun (s : Sheet.t) ->
      let w = Specgen.build s in
      let mods =
        Janitizer.Driver.static_closure ~registry:w.w_registry ~main:s.s_name
        @ w.w_registry
      in
      List.filter
        (fun m ->
          let d = Jt_obj.Objfile.digest m in
          if Hashtbl.mem seen d then false
          else begin
            Hashtbl.replace seen d ();
            true
          end)
        mods)
    Sheet.all
