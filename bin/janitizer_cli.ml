(* The janitizer command-line tool.

     janitizer_cli list
     janitizer_cli inspect <workload>
     janitizer_cli run <workload> [--tool jasan|jcfi|valgrind|null] [--no-static]
     janitizer_cli juliet [--detector jasan|valgrind] [--limit N]   *)

open Cmdliner
open Jt_workloads

let find_workload name =
  match Sheet.find name with
  | s -> Ok (Specgen.build s)
  | exception Not_found ->
    Error
      (Printf.sprintf "unknown workload %S (try `janitizer_cli list`)" name)

(* ---- list ---- *)

let list_cmd =
  let doc = "List the available SPEC CPU2006-like workloads." in
  let run () =
    List.iter
      (fun (s : Sheet.t) ->
        Printf.printf "%-12s %s\n" s.s_name
          (match s.s_lang with
          | Sheet.C -> "C"
          | Sheet.Cxx -> "C++"
          | Sheet.Fortran -> "Fortran"
          | Sheet.Mixed_cf -> "C/Fortran"))
      Sheet.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---- inspect ---- *)

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let inspect_cmd =
  let doc = "Run the static analyzer over a workload and report findings." in
  let run name =
    match find_workload name with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok w ->
      let closure =
        Janitizer.Driver.static_closure ~registry:w.w_registry ~main:name
      in
      List.iter
        (fun (m : Jt_obj.Objfile.t) ->
          let sa = Janitizer.Static_analyzer.analyze m in
          let covered, total = Jt_disasm.Disasm.code_stats sa.sa_disasm in
          let loops =
            List.fold_left
              (fun acc (fa : Janitizer.Static_analyzer.fn_analysis) ->
                acc + List.length fa.fa_fn.Jt_cfg.Cfg.f_loops)
              0 sa.sa_fns
          in
          let canaries =
            List.fold_left
              (fun acc (fa : Janitizer.Static_analyzer.fn_analysis) ->
                acc + List.length fa.fa_canaries)
              0 sa.sa_fns
          in
          let hoistable =
            List.fold_left
              (fun acc (fa : Janitizer.Static_analyzer.fn_analysis) ->
                acc + List.length fa.fa_scev)
              0 sa.sa_fns
          in
          let jasan, _ = Jt_jasan.Jasan.create () in
          let rules = jasan.Janitizer.Tool.t_static sa in
          Printf.printf
            "%-18s %-5s  %4d fns %5d blocks  %3d loops (%d hoistable)  %2d \
             canary sites  %5d/%5d code bytes decoded  %5d JASan rules\n"
            m.name
            (match m.kind with
            | Jt_obj.Objfile.Exec_nonpic -> "EXEC"
            | Jt_obj.Objfile.Exec_pic -> "PIE"
            | Jt_obj.Objfile.Shared -> "DYN")
            (List.length sa.sa_fns)
            (Jt_cfg.Cfg.block_count sa.sa_cfg)
            loops hoistable canaries covered total
            (List.length rules.rf_rules))
        closure
  in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const run $ workload_arg)

(* ---- run ---- *)

let tool_conv =
  Arg.enum
    [ ("jasan", `Jasan); ("jcfi", `Jcfi); ("taint", `Taint); ("valgrind", `Valgrind);
      ("null", `Null) ]

let tool_arg =
  Arg.(value & opt tool_conv `Jasan & info [ "tool" ] ~docv:"TOOL" ~doc:"Security tool")

let no_static_arg =
  Arg.(value & flag & info [ "no-static" ] ~doc:"Disable the static analyzer (dynamic-only mode)")

let run_cmd =
  let doc = "Execute a workload under the dynamic modifier with a tool." in
  let run name tool no_static =
    match find_workload name with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok w ->
      let hybrid = not no_static in
      let native = Specgen.run_native w in
      let show label (r : Jt_vm.Vm.result) extra =
        Printf.printf "%s: %s, %d instructions, %d cycles (%.2fx)%s\n" label
          (Format.asprintf "%a" Jt_vm.Vm.pp_status r.r_status)
          r.r_icount r.r_cycles
          (float_of_int r.r_cycles /. float_of_int native.r_cycles)
          extra;
        match r.r_violations with
        | [] -> ()
        | vs ->
          List.iter
            (fun v ->
              Printf.printf "  violation: %s at 0x%08x (pc 0x%08x)\n"
                v.Jt_vm.Vm.v_kind v.v_addr v.v_pc)
            vs
      in
      show "native" native "";
      (match tool with
      | `Null ->
        let o = Janitizer.Driver.run_null ~registry:w.w_registry ~main:name () in
        show "null client" o.o_result ""
      | `Valgrind ->
        let r = Jt_baselines.Valgrind_like.run ~registry:w.w_registry ~main:name () in
        show "valgrind-class" r ""
      | `Jasan ->
        let t, _ = Jt_jasan.Jasan.create () in
        let o = Janitizer.Driver.run ~hybrid ~tool:t ~registry:w.w_registry ~main:name () in
        show "jasan" o.o_result
          (Printf.sprintf ", %d rules, %.1f%% dynamic blocks" o.o_rule_count
             (100.0 *. o.o_dynamic_fraction))
      | `Jcfi ->
        let t, rt = Jt_jcfi.Jcfi.create () in
        let o = Janitizer.Driver.run ~hybrid ~tool:t ~registry:w.w_registry ~main:name () in
        show "jcfi" o.o_result
          (Printf.sprintf ", %d rules, DAIR %.2f%%" o.o_rule_count
             (Jt_jcfi.Air.dynamic rt))
      | `Taint ->
        let t, rt = Jt_taint.Taint.create () in
        let o = Janitizer.Driver.run ~hybrid ~tool:t ~registry:w.w_registry ~main:name () in
        show "jtaint" o.o_result
          (Printf.sprintf ", %d rules, %d alerts" o.o_rule_count
             (Jt_taint.Taint.Rt.alerts rt)));
      if native.r_output <> "" then
        Printf.printf "program output: %s\n" (String.trim native.r_output)
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ workload_arg $ tool_arg $ no_static_arg)

(* ---- disasm ---- *)

let disasm_cmd =
  let doc = "Print an objdump-style listing of a workload module." in
  let module_arg =
    Arg.(value & opt (some string) None & info [ "module" ] ~docv:"NAME"
           ~doc:"Module to list (default: the main executable)")
  in
  let run name module_name =
    match find_workload name with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok w ->
      let target = Option.value ~default:name module_name in
      (match
         List.find_opt
           (fun (m : Jt_obj.Objfile.t) -> String.equal m.name target)
           w.w_registry
       with
      | None ->
        Printf.eprintf "no module %S in this workload's registry\n" target;
        exit 1
      | Some m ->
        let d = Jt_disasm.Disasm.run m in
        Format.printf "%a@." Jt_disasm.Disasm.pp_listing d)
  in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const run $ workload_arg $ module_arg)

(* ---- analyze: offline rule generation ---- *)

(* Per-function dataflow facts as JSON: value-sets at block boundaries
   plus the elision decision (and its reason) for every load/store —
   the debugging view for bailed-out loops and missed elisions.
   [traces] is the runtime complement: the per-trace elision decisions
   the DBT's spine analysis made on the workload's hot superblocks
   (reasons "trace-dom", "trace-streak", "trace-ind"),
   collected from one instrumented run. *)
let dump_facts oc ?(traces = []) (closure : Jt_obj.Objfile.t list) =
  let jstr s = "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\"" in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"modules\": [\n";
  List.iteri
    (fun mi (m : Jt_obj.Objfile.t) ->
      let sa = Janitizer.Static_analyzer.analyze m in
      let reports = Jt_jasan.Jasan.elision_report sa in
      Buffer.add_string buf
        (Printf.sprintf "    {\"module\": %s, \"functions\": [\n" (jstr m.name));
      List.iteri
        (fun fi ((fa : Janitizer.Static_analyzer.fn_analysis),
                 (r : Jt_jasan.Jasan.fn_report)) ->
          let vsa = Lazy.force fa.fa_vsa in
          Buffer.add_string buf
            (Printf.sprintf
               "      {\"entry\": %d, \"vsa_bailed\": %b, \
                \"vsa_iterations\": %d,\n"
               r.er_fn r.er_vsa_bailed (Jt_analysis.Vsa.iterations vsa));
          Buffer.add_string buf "       \"blocks\": [";
          List.iteri
            (fun bi (b : Jt_cfg.Cfg.block) ->
              if bi > 0 then Buffer.add_string buf ", ";
              let regs =
                match Jt_analysis.Vsa.block_in vsa b.b_addr with
                | None -> []
                | Some rs ->
                  (* Top rows carry no information; keep the dump small *)
                  List.filter
                    (fun (_, v) -> v <> Jt_analysis.Vsa.Top)
                    rs
              in
              Buffer.add_string buf
                (Printf.sprintf "{\"addr\": %d, \"regs\": {%s}}" b.b_addr
                   (String.concat ", "
                      (List.map
                         (fun (reg, v) ->
                           Printf.sprintf "%s: %s"
                             (jstr (Format.asprintf "%a" Jt_isa.Reg.pp reg))
                             (jstr (Jt_analysis.Vsa.value_to_string v)))
                         regs))))
            (Jt_cfg.Cfg.fn_blocks fa.fa_fn);
          Buffer.add_string buf "],\n       \"accesses\": [";
          List.iteri
            (fun ai (addr, claim) ->
              if ai > 0 then Buffer.add_string buf ", ";
              let witness =
                match claim with
                | Jt_jasan.Jasan.Dom_elided w ->
                  Printf.sprintf ", \"witness\": %d" w
                | _ -> ""
              in
              Buffer.add_string buf
                (Printf.sprintf "{\"insn\": %d, \"claim\": %s%s}" addr
                   (jstr (Jt_jasan.Jasan.claim_name claim))
                   witness))
            r.er_claims;
          Buffer.add_string buf "]}";
          if fi < List.length reports - 1 then Buffer.add_string buf ",";
          Buffer.add_char buf '\n')
        (List.combine sa.sa_fns reports);
      Buffer.add_string buf "    ],\n     \"cpa_sites\": [";
      List.iteri
        (fun si (s : Jt_analysis.Cpa.site) ->
          if si > 0 then Buffer.add_string buf ", ";
          let targets =
            match s.cs_targets with
            | None -> "\"Top\""
            | Some ts ->
              "[" ^ String.concat ", " (List.map string_of_int ts) ^ "]"
          in
          Buffer.add_string buf
            (Printf.sprintf
               "{\"entry\": %d, \"site\": %d, \"targets\": %s, \
                \"witness\": %d}"
               s.cs_fn s.cs_site targets s.cs_witness))
        (Jt_analysis.Cpa.sites (Lazy.force sa.sa_cpa));
      Buffer.add_string buf "],\n     \"callgraph\": [";
      List.iteri
        (fun ei (e : Jt_cfg.Callgraph.edge) ->
          if ei > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf
               "{\"caller\": %d, \"site\": %d, \"callee\": %d, \"kind\": %s}"
               e.e_caller e.e_site e.e_callee
               (jstr (Jt_cfg.Callgraph.kind_name e.e_kind))))
        (Jt_cfg.Callgraph.edges (Lazy.force sa.sa_callgraph));
      Buffer.add_string buf "]}";
      if mi < List.length closure - 1 then Buffer.add_string buf ",";
      Buffer.add_char buf '\n')
    closure;
  Buffer.add_string buf "  ],\n  \"traces\": [\n";
  List.iteri
    (fun ti (head, decisions) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"head\": %d, \"decisions\": [%s]}" head
           (String.concat ", "
              (List.map
                 (fun (insn, reason, witness) ->
                   Printf.sprintf
                     "{\"insn\": %d, \"reason\": %s, \"witness\": %d}" insn
                     (jstr reason) witness)
                 decisions)));
      if ti < List.length traces - 1 then Buffer.add_string buf ",";
      Buffer.add_char buf '\n')
    traces;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.output_buffer oc buf

let analyze_cmd =
  let doc =
    "Run a tool's static pass offline and persist per-module rewrite-rule \
     files (.jtr), the artifact a deployment ships next to each binary."
  in
  let out_arg =
    Arg.(value & opt string "_rules" & info [ "o"; "out" ] ~docv:"DIR")
  in
  let facts_arg =
    Arg.(value & opt (some string) None & info [ "facts" ] ~docv:"FILE"
           ~doc:"Also dump per-function dataflow facts (VSA value-sets at \
                 block boundaries, per-access elision decisions) as JSON")
  in
  let run name tool out facts =
    match find_workload name with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok w ->
      let tool_v =
        match tool with
        | `Jasan -> fst (Jt_jasan.Jasan.create ())
        | `Jcfi -> fst (Jt_jcfi.Jcfi.create ())
        | `Taint -> fst (Jt_taint.Taint.create ())
        | `Valgrind | `Null ->
          prerr_endline "analyze needs a framework tool (jasan|jcfi|taint)";
          exit 1
      in
      let closure =
        Janitizer.Driver.static_closure ~registry:w.w_registry ~main:name
      in
      let files = Janitizer.Driver.analyze_all ~tool:tool_v closure in
      Janitizer.Driver.save_rules ~dir:out files;
      List.iter
        (fun (n, (f : Jt_rules.Rules.file)) ->
          let stats =
            match f.rf_stats with
            | [] -> ""
            | ss ->
              "  ("
              ^ String.concat ", "
                  (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) ss)
              ^ ")"
          in
          Printf.printf "%-20s %5d rules -> %s/%s.jtr%s\n" n
            (List.length f.rf_rules) out n stats)
        files;
      match facts with
      | None -> ()
      | Some file ->
        (* A tool instance is one-run state; the run that collects the
           per-trace elision decisions gets its own. *)
        let run_tool =
          match tool with
          | `Jasan -> fst (Jt_jasan.Jasan.create ())
          | `Jcfi -> fst (Jt_jcfi.Jcfi.create ())
          | `Taint -> fst (Jt_taint.Taint.create ())
          | `Valgrind | `Null -> assert false
        in
        let o =
          Janitizer.Driver.run ~tool:run_tool ~registry:w.w_registry
            ~main:name ()
        in
        let oc = open_out file in
        dump_facts oc ~traces:o.o_trace_elisions closure;
        close_out oc;
        Printf.printf "dataflow facts -> %s (%d live traces)\n" file
          (List.length o.o_trace_elisions)
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ workload_arg $ tool_arg $ out_arg $ facts_arg)

(* ---- trace: structured event capture ---- *)

let trace_cmd =
  let doc =
    "Execute a workload with the structured trace layer enabled and export \
     the captured events as JSONL."
  in
  let out_arg =
    Arg.(value & opt string "trace.jsonl" & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Where to write the JSONL event stream")
  in
  let capacity_arg =
    Arg.(value & opt int Jt_trace.Trace.default_capacity
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Ring-buffer capacity in events (oldest are dropped beyond it)")
  in
  let run name tool no_static out capacity =
    match find_workload name with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok w ->
      let hybrid = not no_static in
      Jt_trace.Trace.enable ~capacity ();
      let o =
        match tool with
        | `Null -> Janitizer.Driver.run_null ~registry:w.w_registry ~main:name ()
        | `Valgrind ->
          prerr_endline "trace needs a framework tool (jasan|jcfi|taint|null)";
          exit 1
        | `Jasan ->
          let t, _ = Jt_jasan.Jasan.create () in
          Janitizer.Driver.run ~hybrid ~tool:t ~registry:w.w_registry ~main:name ()
        | `Jcfi ->
          let t, _ = Jt_jcfi.Jcfi.create () in
          Janitizer.Driver.run ~hybrid ~tool:t ~registry:w.w_registry ~main:name ()
        | `Taint ->
          let t, _ = Jt_taint.Taint.create () in
          Janitizer.Driver.run ~hybrid ~tool:t ~registry:w.w_registry ~main:name ()
      in
      Jt_trace.Trace.disable ();
      let oc = open_out out in
      Jt_trace.Trace.export oc;
      close_out oc;
      Printf.printf "%s: %s, %d instructions, %d cycles\n" name
        (Format.asprintf "%a" Jt_vm.Vm.pp_status o.o_result.r_status)
        o.o_result.r_icount o.o_result.r_cycles;
      Printf.printf "events: %d emitted, %d dropped (ring capacity %d) -> %s\n"
        (Jt_trace.Trace.emitted ()) (Jt_trace.Trace.dropped ()) capacity out;
      List.iter
        (fun (k, n) -> Printf.printf "  %-16s %7d\n" k n)
        (Jt_trace.Trace.kind_counts ());
      print_string "phases:\n";
      List.iter
        (fun (p : Jt_trace.Trace.phase_summary) ->
          if p.ps_spans > 0 || p.ps_cycles > 0 then
            Printf.printf "  %-8s %d span(s), %.6fs host, %d cycles\n"
              (Jt_trace.Trace.phase_name p.ps_phase)
              p.ps_spans p.ps_host_s p.ps_cycles)
        (Jt_trace.Trace.phase_totals ());
      Jt_trace.Trace.clear ()
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ workload_arg $ tool_arg $ no_static_arg $ out_arg
          $ capacity_arg)

(* ---- batch: many workload×tool jobs across a domain pool ---- *)

let batch_cmd =
  let doc =
    "Evaluate many workload/tool combinations concurrently on a domain pool \
     and emit a single JSON report."
  in
  let workloads_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD"
           ~doc:"Workloads to evaluate (default: all of them)")
  in
  let tools_arg =
    Arg.(value & opt_all tool_conv [ `Jasan ]
         & info [ "tool" ] ~docv:"TOOL"
             ~doc:"Tool to attach; repeatable for a tool×workload matrix")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains in the pool")
  in
  let out_arg =
    Arg.(value & opt string "batch.json" & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Where to write the JSON report")
  in
  let store_arg =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Route the static-analysis phase through a persistent IR \
                 store at DIR: modules already in the store skip \
                 re-analysis, and the report gains the store hit rate")
  in
  let tool_name = function
    | `Jasan -> "jasan"
    | `Jcfi -> "jcfi"
    | `Taint -> "taint"
    | `Valgrind -> "valgrind"
    | `Null -> "null"
  in
  let run names tools jobs out store_dir =
    let store = Option.map (fun dir -> Jt_ir.Store.create ~dir ()) store_dir in
    let names = if names = [] then List.map (fun (s : Sheet.t) -> s.s_name) Sheet.all else names in
    List.iter
      (fun n ->
        if not (List.exists (fun (s : Sheet.t) -> String.equal s.s_name n) Sheet.all)
        then begin
          Printf.eprintf "unknown workload %S (try `janitizer_cli list`)\n" n;
          exit 1
        end)
      names;
    let matrix =
      List.concat_map (fun n -> List.map (fun t -> (n, t)) tools) names
    in
    (* Each job is self-contained: it builds the workload, instantiates a
       fresh tool and runs on whatever worker domain picks it up —
       metrics/trace state is domain-local, so jobs cannot corrupt each
       other.  [Pool.map] returns results in submission order, so the
       report is byte-stable regardless of completion order. *)
    let eval (name, tool) =
      match Sheet.find name with
      | exception Not_found -> assert false
      | s ->
        let w = Specgen.build s in
        let o =
          match tool with
          | `Null -> Janitizer.Driver.run_null ~registry:w.w_registry ~main:name ()
          | `Valgrind ->
            let r =
              Jt_baselines.Valgrind_like.run ~registry:w.w_registry ~main:name ()
            in
            { Janitizer.Driver.o_result = r; o_dbt = None;
              o_dynamic_fraction = 0.0; o_rule_count = 0;
              o_trace_elisions = [] }
          | `Jasan ->
            let t, _ = Jt_jasan.Jasan.create () in
            Janitizer.Driver.run ?store ~tool:t ~registry:w.w_registry ~main:name ()
          | `Jcfi ->
            let t, _ = Jt_jcfi.Jcfi.create () in
            Janitizer.Driver.run ?store ~tool:t ~registry:w.w_registry ~main:name ()
          | `Taint ->
            let t, _ = Jt_taint.Taint.create () in
            Janitizer.Driver.run ?store ~tool:t ~registry:w.w_registry ~main:name ()
        in
        (name, tool, o)
    in
    let t0 = Unix.gettimeofday () in
    let results =
      if jobs > 1 then Jt_pool.Pool.run ~jobs eval matrix else List.map eval matrix
    in
    let wall = Unix.gettimeofday () -. t0 in
    let oc = open_out out in
    Printf.fprintf oc "{\n  \"jobs\": %d,\n  \"wall_s\": %.3f,\n" jobs wall;
    (match store with
    | None -> ()
    | Some st ->
      let s = Jt_ir.Store.stats st in
      Printf.fprintf oc
        "  \"store\": {\"mem_hits\": %d, \"disk_hits\": %d, \"misses\": %d, \
         \"evictions\": %d, \"corrupt\": %d, \"hit_rate\": %.4f},\n"
        s.st_mem_hits s.st_disk_hits s.st_misses s.st_evictions s.st_corrupt
        (Jt_ir.Store.hit_rate s));
    output_string oc "  \"runs\": [\n";
    List.iteri
      (fun i (name, tool, (o : Janitizer.Driver.outcome)) ->
        Printf.fprintf oc
          "    {\"workload\": %S, \"tool\": %S, \"status\": %S, \"icount\": %d, \
           \"cycles\": %d, \"violations\": %d, \"rules\": %d}%s\n"
          name (tool_name tool)
          (Format.asprintf "%a" Jt_vm.Vm.pp_status o.o_result.r_status)
          o.o_result.r_icount o.o_result.r_cycles
          (List.length o.o_result.r_violations)
          o.o_rule_count
          (if i = List.length results - 1 then "" else ","))
      results;
    output_string oc "  ]\n}\n";
    close_out oc;
    Printf.printf "%d runs (%d workloads x %d tools), %d jobs, %.3fs -> %s\n"
      (List.length results) (List.length names) (List.length tools) jobs wall out
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(const run $ workloads_arg $ tools_arg $ jobs_arg $ out_arg
          $ store_arg)

(* ---- cache: rule-cache and IR-store maintenance ---- *)

let cache_cmd =
  let doc =
    "Inspect and maintain the on-disk caches: the rewrite-rule cache \
     (.jtr files) and the content-addressed IR store (.jtir files)."
  in
  let action_conv =
    Arg.enum [ ("stats", `Stats); ("gc", `Gc); ("clear", `Clear) ]
  in
  let action_arg =
    Arg.(required & pos 0 (some action_conv) None & info [] ~docv:"ACTION"
           ~doc:"$(b,stats) reports entries, bytes and this process's \
                 hit/miss counts; $(b,gc) evicts oldest-accessed entries \
                 until each cache fits --max-bytes; $(b,clear) removes \
                 every entry.")
  in
  let rules_dir_arg =
    Arg.(value & opt string "_rules" & info [ "rules-dir" ] ~docv:"DIR"
           ~doc:"Rewrite-rule cache directory")
  in
  let store_dir_arg =
    Arg.(value & opt string "_irstore" & info [ "store-dir" ] ~docv:"DIR"
           ~doc:"IR store directory")
  in
  let max_bytes_arg =
    Arg.(value & opt (some int) None & info [ "max-bytes" ] ~docv:"N"
           ~doc:"gc budget, applied to each cache independently")
  in
  (* The rule cache shares the store's maintenance policy (oldest mtime
     first) but has no module of its own — it is a plain directory of
     .jtr files, enumerated here. *)
  let rule_entries dir =
    (match Sys.readdir dir with
    | files -> Array.to_list files
    | exception Sys_error _ -> [])
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".jtr" then begin
             let path = Filename.concat dir f in
             match Unix.stat path with
             | st -> Some (path, st.Unix.st_size, st.Unix.st_mtime)
             | exception Unix.Unix_error _ -> None
           end
           else None)
    |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
  in
  let total entries = List.fold_left (fun a (_, b, _) -> a + b) 0 entries in
  let run action rules_dir store_dir max_bytes =
    let store = Jt_ir.Store.create ~dir:store_dir () in
    match action with
    | `Stats ->
      let rents = rule_entries rules_dir in
      let sents = Jt_ir.Store.disk_entries store in
      let st = Jt_ir.Store.stats store in
      Printf.printf "rule cache %s: %d entries, %d bytes\n" rules_dir
        (List.length rents) (total rents);
      Printf.printf "IR store   %s: %d entries, %d bytes\n" store_dir
        (List.length sents) (total sents);
      Printf.printf
        "IR store lookups this process: %d mem hits, %d disk hits, %d \
         misses, %d evictions, %d corrupt (hit rate %.1f%%)\n"
        st.st_mem_hits st.st_disk_hits st.st_misses st.st_evictions
        st.st_corrupt
        (100.0 *. Jt_ir.Store.hit_rate st)
    | `Gc ->
      let budget =
        match max_bytes with
        | Some n when n >= 0 -> n
        | Some _ | None ->
          prerr_endline "cache gc needs --max-bytes N (N >= 0)";
          exit 1
      in
      let rents = rule_entries rules_dir in
      let excess = ref (total rents - budget) in
      let r_removed = ref 0 and r_freed = ref 0 in
      List.iter
        (fun (path, sz, _) ->
          if !excess > 0 then begin
            (try Sys.remove path with Sys_error _ -> ());
            excess := !excess - sz;
            incr r_removed;
            r_freed := !r_freed + sz
          end)
        rents;
      let s_removed, s_freed = Jt_ir.Store.gc store ~max_bytes:budget in
      Printf.printf "rule cache %s: removed %d entries, freed %d bytes\n"
        rules_dir !r_removed !r_freed;
      Printf.printf "IR store   %s: removed %d entries, freed %d bytes\n"
        store_dir s_removed s_freed
    | `Clear ->
      let rents = rule_entries rules_dir in
      List.iter
        (fun (path, _, _) -> try Sys.remove path with Sys_error _ -> ())
        rents;
      let s_removed = Jt_ir.Store.clear store in
      Printf.printf "rule cache %s: removed %d entries\n" rules_dir
        (List.length rents);
      Printf.printf "IR store   %s: removed %d entries\n" store_dir s_removed
  in
  Cmd.v (Cmd.info "cache" ~doc)
    Term.(const run $ action_arg $ rules_dir_arg $ store_dir_arg
          $ max_bytes_arg)

(* ---- emit: ahead-of-time rewriting ---- *)

let emit_cmd =
  let doc =
    "Ahead-of-time rewrite a workload: emit JELF objects with the tool's \
     checks materialized as real instructions, save them, then execute the \
     emitted program on the plain VM (zero translation overhead) and \
     differential-check it against the hybrid DBT."
  in
  let out_arg =
    Arg.(value & opt string "_emitted" & info [ "o"; "out" ] ~docv:"DIR"
           ~doc:"Directory for the emitted .jelf objects")
  in
  let run name tool out =
    match find_workload name with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok w ->
      let etool =
        match tool with
        | `Jasan -> Jt_emit.Emit.Asan { elide = true }
        | `Jcfi -> Jt_emit.Emit.Cfi Jt_jcfi.Jcfi.default_config
        | `Taint | `Valgrind | `Null ->
          prerr_endline "emit supports --tool jasan|jcfi";
          exit 1
      in
      (match
         Jt_emit.Emit.emit_program ~tool:etool ~registry:w.w_registry
           ~main:name ()
       with
      | Error (_, r) ->
        (* The typed applicability verdict: the rewriter refuses rather
           than emit a silently wrong binary. *)
        Printf.eprintf "refused: %s\n" (Jt_emit.Emit.refusal_to_string r);
        exit 2
      | Ok p ->
        List.iter
          (fun (mo : Jt_obj.Objfile.t) ->
            if List.mem mo.name p.p_emitted then begin
              let path = Jt_obj.Jelf.save ~dir:out mo in
              let em = Option.get (Jt_emit.Emit.read_map mo) in
              let sites =
                Array.fold_left
                  (fun a (mi : Jt_emit.Emit.map_insn) ->
                    if mi.mi_site then a + 1 else a)
                  0 em.em_insns
              in
              Printf.printf "%-18s -> %s  (%d insns, %d sites, %d pins)\n"
                mo.name path (Array.length em.em_insns) sites
                (Array.length em.em_pins)
            end)
          p.p_registry;
        List.iter
          (fun (n, r) ->
            Printf.printf "%-18s skipped: %s\n" n
              (Jt_emit.Emit.refusal_to_string r))
          p.p_skipped;
        let native = Specgen.run_native w in
        let e = Jt_emit.Emit.run p in
        let er = e.ro_outcome.o_result in
        Printf.printf
          "emitted run: %s, %d instructions, %d cycles (%.2fx native), %d \
           sites, %d pins, %d check cycles\n"
          (Format.asprintf "%a" Jt_vm.Vm.pp_status er.r_status)
          er.r_icount er.r_cycles
          (float_of_int er.r_cycles /. float_of_int native.r_cycles)
          e.ro_sites e.ro_pins e.ro_check_cost;
        List.iter
          (fun v ->
            Printf.printf "  violation: %s at 0x%08x (pc 0x%08x)\n"
              v.Jt_vm.Vm.v_kind v.v_addr v.v_pc)
          er.r_violations;
        let h =
          match tool with
          | `Jasan ->
            let t, _ = Jt_jasan.Jasan.create ~elide:true () in
            Janitizer.Driver.run ~tool:t ~registry:w.w_registry ~main:name ()
          | `Jcfi ->
            let t, _ = Jt_jcfi.Jcfi.create () in
            Janitizer.Driver.run ~tool:t ~registry:w.w_registry ~main:name ()
          | _ -> assert false
        in
        let vset (r : Jt_vm.Vm.result) =
          List.sort_uniq compare
            (List.map (fun v -> (v.Jt_vm.Vm.v_kind, v.v_addr)) r.r_violations)
        in
        let identical =
          (er.r_status, er.r_output) = (h.o_result.r_status, h.o_result.r_output)
          && vset er = vset h.o_result
          && er.r_icount - e.ro_sites - e.ro_pins = h.o_result.r_icount
        in
        Printf.printf
          "differential vs hybrid DBT: %s (icount %d - %d sites - %d pins = \
           hybrid %d)\n"
          (if identical then "identical" else "DIVERGED")
          er.r_icount e.ro_sites e.ro_pins h.o_result.r_icount;
        if not identical then exit 1)
  in
  Cmd.v (Cmd.info "emit" ~doc)
    Term.(const run $ workload_arg $ tool_arg $ out_arg)

(* ---- juliet ---- *)

let juliet_cmd =
  let doc = "Run a Juliet-style CWE suite under a detector." in
  let det_conv =
    Arg.enum
      [ ("jasan", Juliet.Jasan_hybrid); ("jasan-dyn", Juliet.Jasan_dyn);
        ("valgrind", Juliet.Valgrind) ]
  in
  let det_arg =
    Arg.(value & opt det_conv Juliet.Jasan_hybrid & info [ "detector" ] ~docv:"DET")
  in
  let fam_conv =
    Arg.enum
      [ ("cwe-122", None); ("cwe-124", Some Juliet.Cwe124);
        ("cwe-415", Some Juliet.Cwe415); ("cwe-416", Some Juliet.Cwe416);
        ("cwe-121", Some Juliet.Cwe121) ]
  in
  let fam_arg =
    Arg.(value & opt fam_conv None
         & info [ "family" ] ~docv:"CWE"
             ~doc:"Which suite: cwe-122 (default), cwe-124, cwe-415, cwe-416, cwe-121")
  in
  let limit_arg =
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc:"Only the first N cases")
  in
  let run det fam limit =
    let t =
      match fam with
      | None -> Juliet.evaluate ?limit det
      | Some fam -> Juliet.evaluate_family ?limit det fam
    in
    Printf.printf "TP=%d FN=%d TN=%d FP=%d\n" t.t_true_pos t.t_false_neg
      t.t_true_neg t.t_false_pos
  in
  Cmd.v (Cmd.info "juliet" ~doc) Term.(const run $ det_arg $ fam_arg $ limit_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let doc =
    "Differential soundness fuzzing: seeded workload programs with injected \
     violations, run under every scheme and checked against the expected \
     detection matrix plus bit-identical benign behaviour."
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Base seed")
  in
  let seeds_arg =
    Arg.(value & opt int 84
         & info [ "cases" ] ~docv:"N"
             ~doc:"Seed count; each seed yields one benign case plus one per \
                   injection kind (6 total)")
  in
  let run base_seed seeds =
    let r = Jt_fuzz.Fuzz.run_suite ~base_seed ~seeds () in
    List.iter
      (fun (x : Jt_fuzz.Fuzz.matrix_row) ->
        Printf.printf "%-14s TP=%-4d FN=%-4d TN=%-4d FP=%-4d refused=%d\n"
          x.mx_scheme x.mx_tp x.mx_fn x.mx_tn x.mx_fp x.mx_refused)
      r.rp_matrix;
    Printf.printf "%d cases, %d runs, %d soundness mismatches\n" r.rp_cases
      r.rp_runs
      (List.length r.rp_mismatches);
    List.iter
      (fun (m : Jt_fuzz.Fuzz.mismatch) ->
        Printf.printf "MISMATCH %s %s: %s\n" m.mm_case m.mm_scheme m.mm_what)
      r.rp_mismatches;
    if r.rp_mismatches <> [] then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc) Term.(const run $ seed_arg $ seeds_arg)

let () =
  let doc = "Janitizer: hybrid static-dynamic binary security (simulated reproduction)" in
  let info = Cmd.info "janitizer_cli" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; inspect_cmd; disasm_cmd; analyze_cmd; run_cmd; trace_cmd;
            batch_cmd; cache_cmd; emit_cmd; juliet_cmd; fuzz_cmd ]))
