(* The measured program, driven from outside through public entry
   points only.

   [untraced] is what a user runs: parse, then [Hqs.solve_pcnf] (or
   [Hqs.solve_pcnf_certified]), with tracing off; [traced] is the same
   with [Obs.Trace] on. [split] runs the same pipeline one public call at
   a time with [Obs.Trace] on: [Dqbf.Pcnf.parse_string] ->
   [Analysis.Rp.analyze] -> [Dqbf.Preprocess.run] -> [Hqs.solve_formula],
   which is the sequence [Hqs.solve_pcnf] performs at the default
   (audit-free) config. Each call is timed and its [Gc.minor_words] delta
   taken; span self times and [Obs.Metrics] counter deltas come from the
   instrumentation already in the program. *)

let now = Hqs_util.Budget.now

(* instance id -> top major heap, in words, of each of its solve processes *)
let heap_peaks : (string, int list) Hashtbl.t = Hashtbl.create 16

(* Each measured solve runs in a fresh process: this executable again,
   started with [--solve MODE FILE] (see perfbench.ml), which calls
   [serve]. So every solve starts from the same state, as a user's `hqs`
   process does, and nothing one solve leaves behind (garbage, grown
   tables) slows the next. The workload and instance go to the child
   marshalled in a file of its own under .perfbench/. The result comes
   back marshalled on the child's stdout, with the child's top major
   heap. An exception in the child is re-raised here as [Failure].
   The host's speed is probed here, right before the child starts and
   right after it ends, so the probe's memory stays out of the child's
   heap; the result comes with the child's [Speed.window]. *)
let scratch = ".perfbench"

let in_process ~mode (w : Workload.t) (inst : Workload.instance) =
  (try Sys.mkdir scratch 0o755 with Sys_error _ when Sys.file_exists scratch -> ());
  let file = Filename.temp_file ~temp_dir:scratch "solve" ".request" in
  Out_channel.with_open_bin file (fun oc -> Marshal.to_channel oc (w, inst) []);
  let exe = Sys.executable_name in
  let data, window =
    Speed.around @@ fun () ->
    let r, wr = Unix.pipe ~cloexec:true () in
    let pid =
      Fun.protect ~finally:(fun () -> Unix.close wr) @@ fun () ->
      Unix.create_process exe [| exe; "--solve"; mode; file |] Unix.stdin wr Unix.stderr
    in
    let ic = Unix.in_channel_of_descr r in
    let data = In_channel.input_all ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    data
  in
  Sys.remove file;
  if data = "" then failwith "the solve process died"
  else
    match Marshal.from_string data 0 with
    | Ok v, top ->
        let id = inst.Workload.id in
        let tops = Option.value ~default:[] (Hashtbl.find_opt heap_peaks id) in
        Hashtbl.replace heap_peaks id (top :: tops);
        (v, window)
    | Error msg, _ -> failwith msg

type outcome = Decided of Hqs.verdict | Timed_out

type run = {
  outcome : outcome;
  seconds : float;  (** parse to verdict *)
  cert : Cert.t option;  (** certified workloads only *)
  run_counters : (string * float) list;  (** [Obs.Metrics] deltas over the solve *)
}

let budget () = Hqs_util.Budget.of_seconds Workload.limit_s

let counters_since before =
  Obs.Metrics.to_assoc (Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()))

let solve_here ~config ~traced (w : Workload.t) (inst : Workload.instance) =
  let budget = budget () in
  let before = Obs.Metrics.snapshot () in
  if traced then Obs.Trace.start ();
  let t0 = now () in
  let r =
    match
      let pcnf = Dqbf.Pcnf.parse_string inst.Workload.text in
      if w.Workload.certify then
        let v, cert, _, _ =
          Hqs.solve_pcnf_certified ~config ~budget ~instance_text:inst.Workload.text pcnf
        in
        (v, Some cert)
      else (fst (Hqs.solve_pcnf ~config ~budget pcnf), None)
    with
    | v, cert -> (Decided v, now () -. t0, cert)
    | exception Hqs_util.Budget.Timeout -> (Timed_out, now () -. t0, None)
  in
  if traced then begin
    Obs.Trace.stop ();
    Obs.Trace.reset ()
  end;
  let outcome, seconds, cert = r in
  { outcome; seconds; cert; run_counters = counters_since before }

(* wall seconds and allocated mega-words of one call *)
type cost = { s : float; mw : float }

let zero = { s = 0.0; mw = 0.0 }

let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let s = now () -. t0 in
  (r, { s; mw = (Gc.minor_words () -. w0) /. 1e6 })

type split = {
  verdict : outcome;
  parse : cost;
  analysis : cost;
  preprocess : cost;
  core : cost;
  cert_emit : cost;
      (** certified only: [Hqs.solve_pcnf_certified] minus analysis,
          preprocess and core *)
  cert_check : cost;  (** certified only, when [check_cert]: [Cert.check] *)
  clauses : int;  (** clauses of the parsed instance *)
  peak_nodes : int;  (** [Hqs.stats.peak_nodes] of the core solve *)
  spans : (string * float) list;  (** span name -> self seconds *)
  counters : (string * float) list;
      (** [Obs.Metrics] deltas over the split; on certified, over the
          [Hqs.solve_pcnf_certified] call, which includes the
          certificate's own refutation *)
  dropped : int;  (** trace events past the buffer cap *)
  cert : Cert.t option;  (** certified only *)
  cert_error : string option;
}

let span_selves () =
  List.map (fun t -> (t.Obs.Trace.span, t.Obs.Trace.self_s)) (Obs.Trace.totals ())

let split_here ~(config : Hqs.config) ~check_cert (w : Workload.t) (inst : Workload.instance) =
  let before = Obs.Metrics.snapshot () in
  let analysis = ref zero and preprocess = ref zero and core = ref zero and peak_nodes = ref 0 in
  let step cell f =
    let r, c = timed f in
    cell := c;
    r
  in
  Obs.Trace.start ();
  let pcnf, parse, verdict =
    Fun.protect ~finally:Obs.Trace.stop @@ fun () ->
    let pcnf, parse = timed (fun () -> Dqbf.Pcnf.parse_string inst.Workload.text) in
    let verdict =
      try
        let refined, _ =
          step analysis (fun () -> Analysis.Rp.analyze ~scheme:config.Hqs.dep_scheme pcnf)
        in
        match
          step preprocess (fun () ->
              Dqbf.Preprocess.run ~config:config.Hqs.preprocess ?node_limit:config.Hqs.node_limit
                refined)
        with
        | Dqbf.Preprocess.Unsat -> Decided Hqs.Unsat
        | Dqbf.Preprocess.Formula (f, _) ->
            let v, stats = step core (fun () -> Hqs.solve_formula ~config ~budget:(budget ()) f) in
            peak_nodes := stats.Hqs.peak_nodes;
            Decided v
      with Hqs_util.Budget.Timeout -> Timed_out
    in
    (pcnf, parse, verdict)
  in
  let spans = span_selves () and dropped = Obs.Trace.dropped () in
  Obs.Trace.reset ();
  let counters = counters_since before in
  let pipeline =
    {
      s = !analysis.s +. !preprocess.s +. !core.s;
      mw = !analysis.mw +. !preprocess.mw +. !core.mw;
    }
  in
  let base =
    {
      verdict;
      parse;
      analysis = !analysis;
      preprocess = !preprocess;
      core = !core;
      cert_emit = zero;
      cert_check = zero;
      clauses = List.length pcnf.Dqbf.Pcnf.clauses;
      peak_nodes = !peak_nodes;
      spans;
      counters;
      dropped;
      cert = None;
      cert_error = None;
    }
  in
  if not w.Workload.certify then base
  else begin
    (* the certifying entry point repeats analysis, preprocessing and
       the core solve with a model trail, then emits the certificate:
       what it costs beyond the split pipeline is the cert layer *)
    let before = Obs.Metrics.snapshot () in
    Obs.Trace.start ();
    let (cv, cert, _, _), certified =
      Fun.protect ~finally:Obs.Trace.stop @@ fun () ->
      timed (fun () ->
          Hqs.solve_pcnf_certified ~config ~budget:(budget ()) ~instance_text:inst.Workload.text
            pcnf)
    in
    let counters = counters_since before in
    (* only the cert spans: the rest of this trace repeats the split *)
    let spans =
      List.filter (fun (name, _) -> String.starts_with ~prefix:"cert." name) (span_selves ())
      @ spans
    in
    let dropped = dropped + Obs.Trace.dropped () in
    Obs.Trace.reset ();
    let check, cert_check =
      if check_cert then timed (fun () -> Cert.check ~instance_text:inst.Workload.text pcnf cert)
      else (Ok (), zero)
    in
    let cert_error =
      match (check, base.verdict) with
      | Error msg, _ -> Some ("Cert.check: " ^ msg)
      | Ok (), Decided v when v <> cv -> Some "certified verdict differs from the split pipeline"
      | Ok (), _ -> None
    in
    {
      base with
      cert_emit = { s = certified.s -. pipeline.s; mw = certified.mw -. pipeline.mw };
      cert_check;
      spans;
      counters;
      dropped;
      cert = Some cert;
      cert_error;
    }
  end

(* each returns the result and the window of the solve process *)
let untraced w inst : run * Speed.window = in_process ~mode:"untraced" w inst
let traced w inst : run * Speed.window = in_process ~mode:"traced" w inst

let split ~check_cert w inst : split * Speed.window =
  in_process ~mode:(if check_cert then "split-check" else "split") w inst

(* [--solve MODE FILE] in the child process: answer one [in_process] *)
let serve ~config ~mode file =
  let (w : Workload.t), (inst : Workload.instance) =
    Marshal.from_string (In_channel.with_open_bin file In_channel.input_all) 0
  in
  let reply f =
    let result = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    print_string (Marshal.to_string (result, (Gc.quick_stat ()).Gc.top_heap_words) [])
  in
  match mode with
  | "untraced" | "traced" -> reply (fun () -> solve_here ~config ~traced:(mode = "traced") w inst)
  | "split" | "split-check" ->
      reply (fun () -> split_here ~config ~check_cert:(mode = "split-check") w inst)
  | other -> invalid_arg ("unknown solve mode " ^ other)

let span_self (sp : split) name =
  List.fold_left (fun a (n, s) -> if String.equal n name then a +. s else a) 0.0 sp.spans

let counter (sp : split) name = Option.value ~default:0.0 (List.assoc_opt name sp.counters)

(* the counters that must repeat exactly between runs of one instance *)
let deterministic_counters counters =
  List.filter
    (fun (n, _) ->
      List.mem n
        [ "sat.propagations"; "aig.nodes_alloc"; "qbf.elim.quantifications"; "fraig.merges";
          "fraig.sat_checks" ]
      || String.starts_with ~prefix:"inproc." n)
    counters

(* Run bin/certcheck on the instance text and the rendered certificate,
   written to files of their own under .perfbench/ in the working
   directory. Returns its exit code and wall time. *)
let certcheck ~exe (inst : Workload.instance) cert =
  (try Sys.mkdir scratch 0o755 with Sys_error _ when Sys.file_exists scratch -> ());
  let write suffix text =
    let file = Filename.temp_file ~temp_dir:scratch "instance" suffix in
    Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text);
    file
  in
  let inst_file = write ".dqdimacs" inst.Workload.text in
  let cert_file = write ".cert" (Cert.render cert) in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = now () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    Unix.create_process exe [| exe; inst_file; cert_file |] Unix.stdin null null
  in
  let _, status = Unix.waitpid [] pid in
  let s = now () -. t0 in
  Sys.remove inst_file;
  Sys.remove cert_file;
  match status with
  | Unix.WEXITED code -> (code, s)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> (-1, s)
