module Json = Obs.Json

(* the Budget clock is the one trace-legal timestamp source: monotonic
   and machine-wide, so supervisor and worker events merge in order *)
module Clock = Hqs_util.Budget

(* ----------------------------------------------------------------- types *)

type status = Value of Json.t | Timeout of float | Memout of float | Crash of float

type completion = {
  task_id : string;
  status : status;
  attempts : int;
  worker_pid : int;
  elapsed_s : float;
  crash_log : string list;
  from_journal : bool;
  salvaged_metrics : Obs.Metrics.sample list;
      (* the worker's last partial registry delta, recovered from the
         pipe when the attempt ended in a kill (timeout/memout) instead
         of a result frame; [] for clean completions and journal rows *)
}

type config = {
  jobs : int;
  limits : Limits.t;
  max_attempts : int;
  backoff : Backoff.policy;
  chaos : Hqs_util.Chaos.t;
}

let default_config =
  {
    jobs = 1;
    limits = Limits.none;
    max_attempts = 3;
    backoff = Backoff.default;
    chaos = Hqs_util.Chaos.off;
  }

type report = {
  completions : completion list;
  executed : int;
  journaled : int;
  journal_dropped : int;
}

(* -------------------------------------------------------- serialization *)

let status_label = function
  | Value _ -> "ok"
  | Timeout _ -> "timeout"
  | Memout _ -> "memout"
  | Crash _ -> "crash"

let samples_to_json samples =
  Json.Arr
    (List.map
       (fun (s : Obs.Metrics.sample) ->
         Json.Obj
           [
             ("n", Json.Str s.name);
             ("k", Json.Str (Obs.Metrics.kind_name s.kind));
             ("v", Json.Num s.v);
           ])
       samples)

let samples_of_json j =
  match Json.to_list j with
  | None -> []
  | Some l ->
      List.filter_map
        (fun item ->
          match
            ( Option.bind (Json.member "n" item) Json.to_string,
              Option.bind (Json.member "k" item) Json.to_string,
              Option.bind (Json.member "v" item) Json.to_number )
          with
          | Some name, Some kind, Some v ->
              Option.map
                (fun kind -> { Obs.Metrics.name; kind; v })
                (Obs.Metrics.kind_of_name kind)
          | _ -> None)
        l

let completion_to_json c =
  Json.Obj
    ([
       ("status", Json.Str (status_label c.status));
       ("elapsed_s", Json.Num c.elapsed_s);
       ("attempts", Json.Num (float_of_int c.attempts));
       ("pid", Json.Num (float_of_int c.worker_pid));
       ("value", (match c.status with Value v -> v | Timeout _ | Memout _ | Crash _ -> Json.Null));
       ("log", Json.Arr (List.map (fun s -> Json.Str s) c.crash_log));
     ]
    (* only when present, so journal lines for clean runs keep their
       exact historical shape *)
    @
    if c.salvaged_metrics = [] then []
    else [ ("salvaged", samples_to_json c.salvaged_metrics) ])

let completion_of_json ~task_id j =
  let num key = Option.bind (Json.member key j) Json.to_number in
  match (Option.bind (Json.member "status" j) Json.to_string, num "elapsed_s") with
  | Some label, Some elapsed_s -> (
      let status =
        match label with
        | "ok" -> Option.map (fun v -> Value v) (Json.member "value" j)
        | "timeout" -> Some (Timeout elapsed_s)
        | "memout" -> Some (Memout elapsed_s)
        | "crash" -> Some (Crash elapsed_s)
        | _ -> None
      in
      match status with
      | None -> None
      | Some status ->
          let log =
            match Option.bind (Json.member "log" j) Json.to_list with
            | None -> []
            | Some l -> List.filter_map Json.to_string l
          in
          Some
            {
              task_id;
              status;
              attempts = (match num "attempts" with Some a -> int_of_float a | None -> 1);
              worker_pid = (match num "pid" with Some p -> int_of_float p | None -> 0);
              elapsed_s;
              crash_log = log;
              from_journal = true;
              salvaged_metrics =
                (match Json.member "salvaged" j with Some s -> samples_of_json s | None -> []);
            })
  | _ -> None

(* ----------------------------------------------------------------- child *)

(* the minimum spacing between partial-state flushes: dense span traffic
   must not turn the result pipe into a firehose *)
let flush_interval_s = 0.05

let trace_fields () =
  if not (Obs.Trace.enabled ()) then []
  else
    [
      ("events", Obs.Trace.events_to_json (Obs.Trace.events ()));
      ("dropped", Json.Num (float_of_int (Obs.Trace.dropped ())));
    ]

let run_child config worker payload fd ~task_id ~attempt ~trace_id ~parent_span =
  (* own session => own process group, so the supervisor's wall-clock
     SIGKILL takes out any grandchildren too *)
  (try ignore (Unix.setsid ()) with Unix.Unix_error (_, _, _) -> ());
  Limits.apply_in_child config.limits;
  (* drop the parent's buffered events/open spans (they belong to the
     supervisor's row of the merged trace, not this worker's), clear any
     inherited flush hook and reset the fallback clock mark *)
  Obs.fork_reinit ();
  if Hqs_util.Chaos.fire config.chaos (Hqs_util.Chaos.worker_kill_point ~task:task_id ~attempt)
  then Unix.kill (Unix.getpid ()) Sys.sigkill;
  let before = Obs.Metrics.snapshot () in
  (* a SIGKILL (wall/chaos) gives no chance to reply, so every span exit
     flushes a throttled partial frame: latest metric delta plus the span
     buffer so far. The parent keeps only the newest one, and only uses
     it when no final frame arrives. The flushes run inside the worker's
     metric scope below, so their gauge levels are this task's own, not
     peaks the supervisor absorbed before the fork. *)
  let last_flush = ref (Clock.now ()) in
  Obs.Span.set_flush_hook
    (Some
       (fun () ->
         let now = Clock.now () in
         if now -. !last_flush >= flush_interval_s then begin
           last_flush := now;
           let delta = Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()) in
           Ipc.write_frame fd
             (Json.Obj
                ((("status", Json.Str "partial") :: ("metrics", samples_to_json delta) :: [])
                @ trace_fields ()))
         end));
  (* the worker's root span carries the cross-process parent link: the
     supervisor's per-task span id and the run's trace id *)
  let root_attrs =
    [ ("trace_id", Obs.Str trace_id); ("parent_span", Obs.Str parent_span) ]
  in
  let run () = Obs.Span.with_ "sup.child" ~attrs:root_attrs (fun () -> worker payload) in
  let result, delta =
    Obs.Metrics.scoped (fun () -> match run () with v -> Ok v | exception e -> Error e)
  in
  Obs.Span.set_flush_hook None;
  let with_obs fields = Json.Obj (fields @ [ ("metrics", samples_to_json delta) ] @ trace_fields ()) in
  let frame =
    match result with
    | Ok v -> with_obs [ ("status", Json.Str "ok"); ("value", v) ]
    | Error Stdlib.Out_of_memory ->
        (* the rlimit (or heap governor) said no: a clean memout *)
        with_obs [ ("status", Json.Str "memout") ]
    | Error Stack_overflow ->
        with_obs [ ("status", Json.Str "error"); ("detail", Json.Str "Stack_overflow") ]
    (* arbitrary worker failures were converted into [Error e] above;
       nothing is swallowed, the supervisor re-raises the failure as a
       crash classification *)
    | Error e ->
        with_obs [ ("status", Json.Str "error"); ("detail", Json.Str (Printexc.to_string e)) ]
  in
  (match Ipc.write_frame fd frame with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  (* _exit, not exit: at_exit handlers (inherited channel flushes) must
     not run in the forked copy *)
  Unix._exit 0

(* ---------------------------------------------------------------- parent *)

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigxcpu then "SIGXCPU"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else Printf.sprintf "signal(%d)" s

let kill_group pid =
  match Unix.kill (-pid) Sys.sigkill with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> (
      match Unix.kill pid Sys.sigkill with
      | () -> ()
      | exception Unix.Unix_error (_, _, _) -> ())

type task_state = {
  index : int;
  id : string;
  mutable spawned : int;  (* attempts consumed so far *)
  mutable log : string list;  (* failed-attempt descriptions, newest first *)
  mutable ready_at : float;  (* backoff gate for the next spawn *)
}

type worker_proc = {
  pid : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  state : task_state;
  span_id : string; (* the supervisor-side span this attempt parents to *)
  started : float;
  deadline : float;
  mutable wall_killed : bool;
}

(* workers may send any number of throttled "partial" frames before the
   final result frame (or before dying). Split the pipe contents into
   (last partial if any, final frame if any); trailing torn bytes from a
   mid-write kill are ignored. *)
let split_frames buf =
  let r = Ipc.reader () in
  let bytes = Buffer.to_bytes buf in
  Ipc.feed r bytes (Bytes.length bytes);
  let rec go partial final =
    match Ipc.next_frame r with
    | None | Some (Error _) -> (partial, final)
    | Some (Ok frame) -> (
        match Option.bind (Json.member "status" frame) Json.to_string with
        | Some "partial" -> go (Some frame) final
        | _ -> go partial (Some frame))
  in
  go None None

let frame_samples frame =
  match Json.member "metrics" frame with Some m -> samples_of_json m | None -> []

(* fold a worker frame's span buffer into the parent trace, under the
   worker's pid row; [truncated] marks batches recovered from a killed
   attempt so synthesized span ends are flagged in the output *)
let inject_frame_events ~pid ~truncated frame =
  if Obs.Trace.enabled () then
    match Json.member "events" frame with
    | None -> ()
    | Some ev_json ->
        let dropped =
          match Option.bind (Json.member "dropped" frame) Json.to_number with
          | Some d -> int_of_float d
          | None -> 0
        in
        Obs.Trace.inject ~pid ~dropped ~truncated (Obs.Trace.events_of_json ev_json)

let run ?(config = default_config) ?journal ?resume ?on_complete ~worker tasks =
  Ipc.ignore_sigpipe ();
  if config.jobs < 1 then invalid_arg "Supervisor.run: jobs must be >= 1";
  if config.max_attempts < 1 then invalid_arg "Supervisor.run: max_attempts must be >= 1";
  let ids = Hashtbl.create 16 in
  List.iter
    (fun (id, _) ->
      if Hashtbl.mem ids id then invalid_arg ("Supervisor.run: duplicate task id " ^ id);
      Hashtbl.replace ids id ())
    tasks;
  (* resume: every checksum-valid journal line for a known task id is a
     finished task this run must not repeat *)
  let journal_dropped = ref 0 in
  let resumed : (string, completion) Hashtbl.t = Hashtbl.create 16 in
  (match resume with
  | None -> ()
  | Some path ->
      let { Journal.entries; dropped } = Journal.load path in
      journal_dropped := dropped;
      List.iter
        (fun { Journal.task_id; data } ->
          if Hashtbl.mem ids task_id then
            match completion_of_json ~task_id data with
            | Some c -> Hashtbl.replace resumed task_id c
            | None -> incr journal_dropped)
        entries);
  let jnl = Option.map Journal.open_append journal in
  let task_arr = Array.of_list tasks in
  let n = Array.length task_arr in
  let completions : completion option array = Array.make n None in
  let pending = Queue.create () in
  (* tasks whose backoff gate is in the future, kept out of the hot queue *)
  let delayed : task_state list ref = ref [] in
  let running : worker_proc list ref = ref [] in
  let executed = ref 0 in
  Array.iteri
    (fun index (id, _) ->
      match Hashtbl.find_opt resumed id with
      | Some c ->
          completions.(index) <- Some c;
          Option.iter (fun f -> f c) on_complete
      | None -> Queue.add { index; id; spawned = 0; log = []; ready_at = 0.0 } pending)
    task_arr;
  let journaled = n - Queue.length pending in
  (* one trace context per run: worker root spans link back to the
     supervisor's per-task spans through (trace_id, span_id) pairs *)
  let trace_id =
    Printf.sprintf "sweep-%d-%x" (Unix.getpid ())
      (int_of_float (Float.rem (Clock.now () *. 1e3) 16777216.0))
  in
  let span_id_of state = Printf.sprintf "%s#%d" state.id (state.spawned + 1) in
  (* each task gets its own Chrome thread row: [Span.with_]'s strict
     nesting cannot express [jobs] overlapping attempts on one row *)
  let task_tid state = 1000 + state.index in
  let finalize ?(salvaged = []) state status pid elapsed =
    let c =
      {
        task_id = state.id;
        status;
        attempts = state.spawned;
        worker_pid = pid;
        elapsed_s = elapsed;
        crash_log = List.rev state.log;
        from_journal = false;
        salvaged_metrics = salvaged;
      }
    in
    completions.(state.index) <- Some c;
    Option.iter (fun j -> Journal.append j { Journal.task_id = c.task_id; data = completion_to_json c }) jnl;
    Option.iter (fun f -> f c) on_complete
  in
  let spawn state =
    let span_id = span_id_of state in
    state.spawned <- state.spawned + 1;
    incr executed;
    Obs.Trace.emit ~tid:(task_tid state)
      ~attrs:
        [
          ("task", Obs.Str state.id);
          ("attempt", Obs.Int state.spawned);
          ("trace_id", Obs.Str trace_id);
          ("span_id", Obs.Str span_id);
        ]
      "sup.task" Obs.Trace.Begin;
    (* the child inherits stdio buffers; empty them so it cannot re-flush
       parent output (it uses _exit, but a worker that prints would
       interleave) *)
    flush stdout;
    flush stderr;
    let r, w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        let _, payload = task_arr.(state.index) in
        run_child config worker payload w ~task_id:state.id ~attempt:state.spawned ~trace_id
          ~parent_span:span_id
    | pid ->
        Unix.close w;
        let now = Clock.now () in
        let deadline =
          match config.limits.Limits.wall_s with Some s -> now +. s | None -> infinity
        in
        running :=
          {
            pid;
            fd = r;
            buf = Buffer.create 1024;
            state;
            span_id;
            started = now;
            deadline;
            wall_killed = false;
          }
          :: !running
  in
  let crash_attempt proc detail elapsed =
    let state = proc.state in
    state.log <- Printf.sprintf "attempt %d: %s" state.spawned detail :: state.log;
    if state.spawned >= config.max_attempts then finalize state (Crash elapsed) proc.pid elapsed
    else begin
      state.ready_at <-
        Clock.now () +. Backoff.delay config.backoff ~task:state.id ~attempt:state.spawned;
      delayed := state :: !delayed
    end
  in
  (* a killed attempt left no result frame, but usually a recent partial
     one: salvage its metric delta (absorbed into this registry and kept
     on the completion for TO/MO reporting) and its span buffer *)
  let salvage_partial proc frame_opt =
    match frame_opt with
    | None -> []
    | Some frame ->
        let samples = frame_samples frame in
        Obs.Metrics.absorb samples;
        inject_frame_events ~pid:proc.pid ~truncated:true frame;
        samples
  in
  let classify proc wstatus elapsed =
    let partial, final = split_frames proc.buf in
    if proc.wall_killed then
      let salvaged = salvage_partial proc partial in
      finalize ~salvaged proc.state (Timeout elapsed) proc.pid elapsed
    else
      match wstatus with
      | Unix.WEXITED 0 -> (
          match final with
          | None ->
              let msg =
                match Ipc.parse_frame (Buffer.contents proc.buf) with
                | Error msg -> msg
                | Ok _ -> "missing final frame"
              in
              crash_attempt proc ("protocol: " ^ msg) elapsed
          | Some frame -> (
              match Option.bind (Json.member "status" frame) Json.to_string with
              | Some "ok" -> (
                  Obs.Metrics.absorb (frame_samples frame);
                  inject_frame_events ~pid:proc.pid ~truncated:false frame;
                  match Json.member "value" frame with
                  | Some v -> finalize proc.state (Value v) proc.pid elapsed
                  | None -> crash_attempt proc "protocol: ok frame without value" elapsed)
              | Some "memout" ->
                  let samples = frame_samples frame in
                  Obs.Metrics.absorb samples;
                  inject_frame_events ~pid:proc.pid ~truncated:false frame;
                  finalize ~salvaged:samples proc.state (Memout elapsed) proc.pid elapsed
              | Some "error" ->
                  let detail =
                    match Option.bind (Json.member "detail" frame) Json.to_string with
                    | Some d -> d
                    | None -> "unknown"
                  in
                  crash_attempt proc ("worker exception: " ^ detail) elapsed
              | Some other -> crash_attempt proc ("protocol: unknown status " ^ other) elapsed
              | None -> crash_attempt proc "protocol: frame without status" elapsed))
      | Unix.WEXITED code -> crash_attempt proc (Printf.sprintf "exit %d" code) elapsed
      | Unix.WSIGNALED s when s = Sys.sigxcpu ->
          (* the soft RLIMIT_CPU fired: a kernel-enforced timeout *)
          let salvaged = salvage_partial proc partial in
          finalize ~salvaged proc.state (Timeout elapsed) proc.pid elapsed
      | Unix.WSIGNALED s ->
          (* a crash may be retried: keep the trace row, skip the metric
             absorb so retries cannot double-count *)
          inject_frame_events ~pid:proc.pid ~truncated:true
            (Option.value ~default:(Json.Obj []) partial);
          crash_attempt proc (signal_name s) elapsed
      | Unix.WSTOPPED s -> crash_attempt proc ("stopped by " ^ signal_name s) elapsed
  in
  let reap proc =
    running := List.filter (fun p -> p.pid <> proc.pid) !running;
    Unix.close proc.fd;
    let rec wait () =
      match Unix.waitpid [] proc.pid with
      | _, wstatus -> wstatus
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let wstatus = wait () in
    let elapsed = Clock.now () -. proc.started in
    classify proc wstatus elapsed;
    Obs.Trace.emit ~tid:(task_tid proc.state)
      ~attrs:
        [
          ("task", Obs.Str proc.state.id);
          ("span_id", Obs.Str proc.span_id);
          ("worker_pid", Obs.Int proc.pid);
          ("elapsed_s", Obs.Float elapsed);
        ]
      "sup.task" Obs.Trace.End
  in
  let chunk = Bytes.create 65536 in
  let read_ready fds =
    List.iter
      (fun fd ->
        match List.find_opt (fun p -> p.fd = fd) !running with
        | None -> ()
        | Some proc -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> reap proc
            | len -> Buffer.add_subbytes proc.buf chunk 0 len
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
      fds
  in
  while (not (Queue.is_empty pending)) || !delayed <> [] || !running <> [] do
    let now = Clock.now () in
    (* promote delayed tasks whose backoff gate has passed *)
    let ready, still = List.partition (fun s -> s.ready_at <= now) !delayed in
    delayed := still;
    List.iter (fun s -> Queue.add s pending) ready;
    while List.length !running < config.jobs && not (Queue.is_empty pending) do
      spawn (Queue.pop pending)
    done;
    if !running = [] then begin
      (* only delayed tasks remain: sleep up to the earliest gate *)
      match !delayed with
      | [] -> ()
      | ds ->
          let earliest = List.fold_left (fun acc s -> Float.min acc s.ready_at) infinity ds in
          let pause = earliest -. Clock.now () in
          if pause > 0.0 then Unix.sleepf (Float.min pause 0.5)
    end
    else begin
      let next_deadline =
        List.fold_left (fun acc p -> Float.min acc p.deadline) infinity !running
      in
      let next_gate = List.fold_left (fun acc s -> Float.min acc s.ready_at) infinity !delayed in
      let timeout =
        let t = Float.min next_deadline next_gate -. now in
        if t = infinity then 0.5 else Float.max 0.0 (Float.min t 0.5)
      in
      (match Unix.select (List.map (fun p -> p.fd) !running) [] [] timeout with
      | readable, _, _ -> read_ready readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      let now = Clock.now () in
      List.iter
        (fun p ->
          if (not p.wall_killed) && now > p.deadline then begin
            p.wall_killed <- true;
            kill_group p.pid
          end)
        !running
    end
  done;
  Option.iter Journal.close jnl;
  let completions =
    Array.to_list completions
    |> List.map (function
         | Some c -> c
         | None ->
             (* unreachable: the loop only exits once every task finalized *)
             invalid_arg "Supervisor.run: task finished without a completion")
  in
  { completions; executed = !executed; journaled; journal_dropped = !journal_dropped }
