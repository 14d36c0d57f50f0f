module Json = Obs.Json
module Metrics = Obs.Metrics
module Span = Obs.Span
module Budget = Hqs_util.Budget
module Chaos = Hqs_util.Chaos
module Ipc = Exec.Ipc

(* ---------------------------------------------------------------- config *)

type config = {
  socket_path : string;
  workers : int;
  queue_cap : int;
  default_timeout_s : float;
  max_timeout_s : float;
  kill_grace_s : float;
  max_attempts : int;
  mem_limit_mb : int option;
  backoff : Exec.Backoff.policy;
  chaos : Chaos.t;
  check_level : Check.level;
  audit_period : int;
  cache_path : string option;
  trace_path : string option;
  event_log : string option;
  solver : Hqs.config;
  certify : bool;
}

let default ~socket_path =
  {
    socket_path;
    workers = 2;
    queue_cap = 16;
    default_timeout_s = 60.;
    max_timeout_s = 600.;
    kill_grace_s = 2.;
    max_attempts = 3;
    mem_limit_mb = None;
    backoff = Exec.Backoff.default;
    chaos = Chaos.off;
    check_level = Check.Off;
    audit_period = 4;
    cache_path = None;
    trace_path = None;
    event_log = None;
    solver = Hqs.default_config;
    certify = false;
  }

let kill_point ~jid ~attempt = Printf.sprintf "serve.worker.kill:%d#%d" jid attempt
let cert_point ~jid ~attempt = Printf.sprintf "serve.cert.poison:%d#%d" jid attempt

(* deterministic certificate corruption behind the chaos poison hook: a
   flipped fingerprint nibble is caught by the structural audit *)
let poison_cert (c : Cert.t) =
  let fp = Bytes.of_string c.Cert.fingerprint in
  if Bytes.length fp > 0 then Bytes.set fp 0 (if Bytes.get fp 0 = '0' then '1' else '0');
  { c with Cert.fingerprint = Bytes.to_string fp }

(* --------------------------------------------------------------- metrics *)

let m_requests = Metrics.counter "serve.requests"
let m_queue_depth = Metrics.gauge "serve.queue_depth"
let m_shed = Metrics.counter "serve.shed"
let m_respawns = Metrics.counter "serve.respawns"
let m_crashes = Metrics.counter "serve.worker_crashes"
let m_cache_hits = Metrics.counter "serve.cache_hits"
let m_cache_misses = Metrics.counter "serve.cache_misses"
let m_audits = Metrics.counter "serve.cache_audits"
let m_audit_failures = Metrics.counter "serve.cache_audit_failures"
let m_cert_audits = Metrics.counter "serve.cert_audits"
let m_cert_audit_failures = Metrics.counter "serve.cert_audit_failed"
let m_timeouts = Metrics.counter "serve.timeouts"
let m_latency = Metrics.histogram "serve.request_latency_s"

(* rolling window behind the health reply's p50/p95/p99 — same series as
   the histogram, but windowed so a long-lived daemon reports *recent*
   latency, not its lifetime average *)
let w_latency = Metrics.window "serve.request_latency_s"

(* ---------------------------------------------------------------- worker *)

(* The pool worker: a forked child in its own session, looping over
   requests on its socketpair end until the daemon closes it (clean
   shutdown) or a request tells it to chaos-kill itself. All failure
   modes of a solve come back as structured results over the same frame
   channel; the worker only dies on chaos kills, rlimit SIGKILLs, or
   genuine solver bugs — exactly the cases the daemon's crash taxonomy
   and respawn path are built for. *)
let rec list_drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> list_drop (n - 1) t

let worker_main (config : config) fd =
  Ipc.ignore_sigpipe ();
  (* drop the daemon's span buffer but keep its enabled flag: when the
     daemon traces, each job's spans are recorded here and shipped back
     in the reply for merging under this worker's pid row. fork_reinit
     also clears any inherited partial-frame flush hook — a daemon that
     is itself running under a sweep worker would otherwise hand this
     pool worker a hook writing onto the sweep supervisor's pipe — and
     resets the fallback clock mark *)
  Obs.fork_reinit ();
  (* hard address-space backstop at 2x the soft heap budget: the Budget
     governor raises a clean, recoverable memout first in the common
     case; the rlimit catches runaway native allocations *)
  (match config.mem_limit_mb with
  | Some mb ->
      Exec.Limits.apply_in_child
        { Exec.Limits.none with Exec.Limits.mem_bytes = Some (2 * mb * 1024 * 1024) }
  | None -> ());
  let rd = Ipc.reader () in
  let rec loop () =
    match Ipc.read_next rd fd with
    | Ipc.Eof -> Unix._exit 0
    | Ipc.Malformed _ -> Unix._exit 3
    | Ipc.Frame j -> (
        match Proto.wreq_of_json j with
        | Error _ -> Unix._exit 3
        | Ok { Proto.jid; text; timeout_s; kill; sleep_s; trace; cert; escalate; poison } ->
            if kill then Unix.kill (Unix.getpid ()) Sys.sigkill;
            let t0 = Budget.now () in
            let budget = Budget.of_seconds timeout_s in
            let budget =
              match config.mem_limit_mb with
              | Some mb -> Budget.with_mem_limit_mb budget mb
              | None -> budget
            in
            if sleep_s > 0. then Unix.sleepf sleep_s;
            let ev_mark = List.length (Obs.Trace.events ()) in
            let solver =
              if escalate then Hqs.escalated_config config.solver else config.solver
            in
            let solve () =
              let pcnf = Dqbf.Pcnf.parse_string text in
              if not cert then begin
                let v, _stats = Hqs.solve_pcnf ~config:solver ~budget pcnf in
                (Proto.W_sat (v = Hqs.Sat), false, None)
              end
              else begin
                (* the solver's own Post_certify audit is disabled here:
                   the audit must run in this frame, after the chaos
                   poison hook, so fault injection exercises exactly the
                   gate the daemon's recovery loop listens to *)
                let v, art, _model, _stats =
                  Hqs.solve_pcnf_certified
                    ~config:{ solver with Hqs.check_level = Check.Off }
                    ~budget ~instance_text:text pcnf
                in
                let art = if poison then poison_cert art else art in
                let level = if escalate then Check.Full else config.check_level in
                match Check.audit_certificate ~budget ~level ~instance_text:text pcnf art with
                | () -> (Proto.W_sat (v = Hqs.Sat), false, Some (Cert.render art))
                | exception Check.Violation viol ->
                    ( Proto.W_cert_failed (Format.asprintf "%a" Check.pp_violation viol),
                      false,
                      None )
              end
            in
            let solve =
              match trace with
              | None -> solve
              | Some id ->
                  fun () ->
                    Span.with_ "serve.solve"
                      ~attrs:[ ("jid", Obs.Int jid); ("trace_id", Obs.Str id) ]
                      solve
            in
            (* one metric scope per request: a persistent worker must not
               report an earlier request's peaks as this one's *)
            let (result, retiring, cert_blob), samples =
              Metrics.scoped @@ fun () ->
              match solve () with
              | r -> r
              | exception Budget.Timeout -> (Proto.W_timeout, false, None)
              | exception Budget.Out_of_memory_budget -> (Proto.W_memout, false, None)
              | exception Out_of_memory ->
                  (* the rlimit backstop fired: the reply still goes out,
                     but the heap is pinned near the ceiling — retire and
                     let the daemon respawn a fresh worker *)
                  (Proto.W_memout, true, None)
              | exception Failure msg -> (Proto.W_error msg, false, None)
              | exception Check.Violation v ->
                  ( Proto.W_error (Format.asprintf "check violation: %a" Check.pp_violation v),
                    false,
                    None )
            in
            let w_events =
              if trace = None then [] else list_drop ev_mark (Obs.Trace.events ())
            in
            (match
               Ipc.write_frame fd
                 (Proto.wreply_to_json
                    {
                      Proto.w_jid = jid;
                      result;
                      w_elapsed_s = Budget.now () -. t0;
                      retiring;
                      samples;
                      w_events;
                      cert_blob;
                    })
             with
            | () -> ()
            | exception Unix.Unix_error (Unix.EPIPE, _, _) -> Unix._exit 0);
            if retiring then Unix._exit 0 else loop ())
  in
  loop ()

(* ------------------------------------------------------- daemon state *)

type job = {
  jid : int;
  cid : int;
  key : Dqbf.Canon.key;
  text : string;
  timeout_s : float;
  sleep_s : float;
  mutable attempts : int;  (** dispatches so far *)
  enqueued_at : float;
  trace : string;  (** request trace id, minted at admission *)
  audit_of : Cache.entry option;  (** [Some e]: sampled re-solve of a cache hit *)
  want_cert : bool;  (** the client asked for the artifact inline *)
  mutable escalate : bool;
      (** re-dispatch after a certificate audit failure: the worker runs
          the solve under full checks with degradation disabled *)
}

type wstate =
  | Idle
  | Busy of job * float  (** job and its absolute wall-kill deadline *)
  | Respawning of float  (** absolute time the replacement may be forked *)

type wslot = {
  widx : int;
  mutable pid : int;
  mutable wfd : Unix.file_descr;
  mutable wrd : Ipc.reader;
  mutable state : wstate;
  mutable failures : int;  (** consecutive crashes, drives quarantine backoff *)
}

type client = {
  cid : int;
  cfd : Unix.file_descr;
  crd : Ipc.reader;
  mutable outq : string list;  (** FIFO of rendered frames; head partially sent *)
  mutable off : int;  (** bytes of the head frame already written *)
}

(* Read whatever is available on a nonblocking fd into [rd]. [`Closed
   got] reports EOF *and* whether bytes were buffered first: a peer that
   writes its last frame and immediately closes (a fire-and-forget
   client, a retiring worker) delivers data and EOF in one batch, and
   the buffered frames must be processed before the fd is dropped. *)
let read_avail fd rd =
  let chunk = Bytes.create 8192 in
  let rec go got =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Closed got
    | n ->
        Ipc.feed rd chunk n;
        go true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if got then `Data else `Nothing
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Closed got
  in
  go false

(* Write a whole frame to a (possibly nonblocking) worker fd, waiting on
   writability for the large-instance case. The worker is either blocked
   reading or solving, and drains its socketpair eventually; a worker
   that died instead surfaces as EPIPE, which the caller maps to the
   crash path. *)
let write_frame_waiting fd bytes =
  let n = Bytes.length bytes in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd bytes !off (n - !off) with
    | written -> off := !off + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match Unix.select [] [ fd ] [] 1.0 with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let kill_group pid signal = try Unix.kill (-pid) signal with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ run *)

let run (config : config) =
  if config.workers < 1 then invalid_arg "Daemon.run: workers must be >= 1";
  if config.queue_cap < 1 then invalid_arg "Daemon.run: queue_cap must be >= 1";
  if config.max_attempts < 1 then invalid_arg "Daemon.run: max_attempts must be >= 1";
  Ipc.ignore_sigpipe ();
  (match config.trace_path with Some _ -> Obs.Trace.start () | None -> ());
  let t_start = Budget.now () in
  let daemon_pid = Unix.getpid () in
  let elog = Option.map Exec.Eventlog.create config.event_log in
  let ev ?trace ?(fields = []) name =
    match elog with
    | Some t -> Exec.Eventlog.log t ~event:name ?trace_id:trace ~fields ()
    | None -> ()
  in
  let cache = Cache.open_ ?path:config.cache_path () in
  if Sys.file_exists config.socket_path then Sys.remove config.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let draining = ref false in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> draining := true)) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> draining := true)) in

  let slots =
    Array.init config.workers (fun widx ->
        {
          widx;
          pid = -1;
          wfd = Unix.stdin;
          wrd = Ipc.reader ();
          state = Respawning 0.;
          failures = 0;
        })
  in
  let clients : (int, client) Hashtbl.t = Hashtbl.create 16 in
  let pending : job Queue.t = Queue.create () in
  let requeued : job list ref = ref [] in
  let next_jid = ref 0 in
  let next_cid = ref 0 in
  let hit_count = ref 0 in

  let queue_depth () = Queue.length pending + List.length !requeued in
  let update_depth () = Metrics.set m_queue_depth (float_of_int (queue_depth ())) in

  let spawn slot =
    let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.fork () with
    | 0 ->
        (* worker: drop every parent-side descriptor so EOF tracking on
           sockets stays precise — an inherited duplicate of another
           worker's channel or a client connection would defeat it *)
        ignore (Unix.setsid ());
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        (try Unix.close parent_fd with Unix.Unix_error _ -> ());
        Hashtbl.iter (fun _ c -> try Unix.close c.cfd with Unix.Unix_error _ -> ()) clients;
        Array.iter
          (fun s ->
            if s.widx <> slot.widx && s.pid >= 0 then
              try Unix.close s.wfd with Unix.Unix_error _ -> ())
          slots;
        worker_main config child_fd
    | pid ->
        Unix.close child_fd;
        Unix.set_nonblock parent_fd;
        slot.pid <- pid;
        slot.wfd <- parent_fd;
        slot.wrd <- Ipc.reader ();
        slot.state <- Idle
  in

  let send_reply cid reply =
    match Hashtbl.find_opt clients cid with
    | None -> () (* client disconnected mid-solve; the verdict is still cached *)
    | Some c -> c.outq <- c.outq @ [ Ipc.frame_string (Proto.reply_to_json reply) ]
  in

  let drop_client c =
    Hashtbl.remove clients c.cid;
    try Unix.close c.cfd with Unix.Unix_error _ -> ()
  in

  let flush_client c =
    let rec go () =
      match c.outq with
      | [] -> ()
      | frame :: rest -> (
          let len = String.length frame in
          match Unix.write_substring c.cfd frame c.off (len - c.off) with
          | n ->
              c.off <- c.off + n;
              if c.off >= len then begin
                c.outq <- rest;
                c.off <- 0;
                go ()
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
              drop_client c)
    in
    go ()
  in

  let complete ~wpid job (wr : Proto.wreply) =
    Metrics.absorb wr.Proto.samples;
    let latency = Budget.now () -. job.enqueued_at in
    Metrics.observe m_latency latency;
    Metrics.wobserve w_latency latency;
    if wr.Proto.w_events <> [] && Obs.Trace.enabled () then
      Obs.Trace.inject ~pid:wpid wr.Proto.w_events;
    ev "complete" ~trace:job.trace
      ~fields:
        [
          ("jid", Json.Num (float_of_int job.jid));
          ( "result",
            Json.Str
              (match wr.Proto.result with
              | Proto.W_sat true -> "sat"
              | Proto.W_sat false -> "unsat"
              | Proto.W_timeout -> "timeout"
              | Proto.W_memout -> "memout"
              | Proto.W_error _ -> "error"
              | Proto.W_cert_failed _ -> "cert_failed") );
          ("elapsed_s", Json.Num wr.Proto.w_elapsed_s);
        ];
    Span.with_ "serve.complete" ~attrs:[ ("jid", Obs.Int job.jid) ] @@ fun () ->
    match wr.Proto.result with
    | Proto.W_sat sat -> (
        if config.certify then Metrics.incr m_cert_audits;
        match job.audit_of with
        | Some cached ->
            Metrics.incr m_audits;
            ev "cache_audit" ~trace:job.trace
              ~fields:[ ("key", Json.Str job.key.Dqbf.Canon.h1) ];
            let verdict_matches =
              match
                Check.audit_cache_hit ~level:config.check_level ~key:job.key.Dqbf.Canon.h1
                  ~cached_sat:cached.Cache.sat ~fresh_sat:sat
              with
              | () -> true
              | exception Check.Violation _ -> false
            in
            if verdict_matches then
              send_reply job.cid
                (Proto.Verdict
                   {
                     sat;
                     elapsed_s = cached.Cache.elapsed_s;
                     cached = true;
                     audited = true;
                     cert = (if job.want_cert then wr.Proto.cert_blob else None);
                   })
            else begin
              Metrics.incr m_audit_failures;
              ev "cache_audit_failed" ~trace:job.trace
                ~fields:[ ("key", Json.Str job.key.Dqbf.Canon.h1) ];
              Cache.remove cache job.key;
              Span.event "serve.cache.audit_failed"
                ~attrs:[ ("key", Obs.Str job.key.Dqbf.Canon.h1) ]
                ();
              send_reply job.cid
                (Proto.Audit_failed { cached_sat = cached.Cache.sat; fresh_sat = sat })
            end
        | None ->
            Cache.store cache job.key ~sat ~elapsed_s:wr.Proto.w_elapsed_s;
            send_reply job.cid
              (Proto.Verdict
                 {
                   sat;
                   elapsed_s = wr.Proto.w_elapsed_s;
                   cached = false;
                   audited = job.escalate;
                   cert = (if job.want_cert then wr.Proto.cert_blob else None);
                 }))
    | Proto.W_timeout ->
        Metrics.incr m_timeouts;
        send_reply job.cid
          (Proto.Failed
             {
               failure = Proto.F_timeout;
               elapsed_s = wr.Proto.w_elapsed_s;
               detail = "solve budget expired";
             })
    | Proto.W_memout ->
        send_reply job.cid
          (Proto.Failed
             {
               failure = Proto.F_memout;
               elapsed_s = wr.Proto.w_elapsed_s;
               detail = "memory budget exceeded";
             })
    | Proto.W_error msg ->
        send_reply job.cid
          (Proto.Failed
             { failure = Proto.F_crash; elapsed_s = wr.Proto.w_elapsed_s; detail = msg })
    | Proto.W_cert_failed detail ->
        (* the worker's certificate audit tripped: treat like a crash —
           tombstone the canonical-form cache entry (the verdict is now
           suspect), re-dispatch escalated, quarantine past the attempt
           budget *)
        Metrics.incr m_cert_audits;
        Metrics.incr m_cert_audit_failures;
        Cache.remove cache job.key;
        Span.event "serve.cert.audit_failed"
          ~attrs:[ ("key", Obs.Str job.key.Dqbf.Canon.h1); ("jid", Obs.Int job.jid) ]
          ();
        ev "cert_audit" ~trace:job.trace
          ~fields:
            [
              ("jid", Json.Num (float_of_int job.jid));
              ("key", Json.Str job.key.Dqbf.Canon.h1);
              ("attempts", Json.Num (float_of_int job.attempts));
              ("detail", Json.Str detail);
            ];
        if job.attempts >= config.max_attempts then begin
          ev "quarantine" ~trace:job.trace
            ~fields:[ ("jid", Json.Num (float_of_int job.jid)) ];
          send_reply job.cid
            (Proto.Failed
               {
                 failure = Proto.F_crash;
                 elapsed_s = Budget.now () -. job.enqueued_at;
                 detail =
                   Printf.sprintf "certificate audit failed (%d attempts): %s" job.attempts
                     detail;
               })
        end
        else begin
          job.escalate <- true;
          ev "retry" ~trace:job.trace
            ~fields:[ ("jid", Json.Num (float_of_int job.jid)); ("escalate", Json.Bool true) ];
          requeued := !requeued @ [ job ];
          update_depth ()
        end
  in

  let respawn_after_failure slot =
    slot.failures <- slot.failures + 1;
    let delay =
      Exec.Backoff.delay config.backoff
        ~task:(Printf.sprintf "serve.worker%d" slot.widx)
        ~attempt:slot.failures
    in
    slot.pid <- -1;
    slot.state <- Respawning (Budget.now () +. delay)
  in

  (* EOF or torn frame from a worker: classify, settle its job, schedule
     the respawn under quarantine backoff. *)
  let worker_died slot =
    (try Unix.close slot.wfd with Unix.Unix_error _ -> ());
    if slot.pid >= 0 then ignore (waitpid_retry slot.pid);
    (match slot.state with
    | Busy (job, _) ->
        Metrics.incr m_crashes;
        Span.event "serve.worker.crash"
          ~attrs:[ ("worker", Obs.Int slot.widx); ("jid", Obs.Int job.jid) ]
          ();
        ev "crash" ~trace:job.trace
          ~fields:
            [
              ("worker", Json.Num (float_of_int slot.widx));
              ("jid", Json.Num (float_of_int job.jid));
              ("attempts", Json.Num (float_of_int job.attempts));
            ];
        if job.attempts >= config.max_attempts then begin
          ev "quarantine" ~trace:job.trace
            ~fields:[ ("jid", Json.Num (float_of_int job.jid)) ];
          send_reply job.cid
            (Proto.Failed
               {
                 failure = Proto.F_crash;
                 elapsed_s = Budget.now () -. job.enqueued_at;
                 detail = Printf.sprintf "worker crashed (%d attempts)" job.attempts;
               })
        end
        else begin
          (* retry ahead of newly admitted work *)
          ev "retry" ~trace:job.trace ~fields:[ ("jid", Json.Num (float_of_int job.jid)) ];
          requeued := !requeued @ [ job ];
          update_depth ()
        end
    | Idle | Respawning _ -> ());
    respawn_after_failure slot
  in

  (* A worker finished its job and retired on purpose (post-memout): not
     a crash, no quarantine, fresh replacement as soon as possible. *)
  let worker_retired slot =
    (try Unix.close slot.wfd with Unix.Unix_error _ -> ());
    if slot.pid >= 0 then ignore (waitpid_retry slot.pid);
    slot.failures <- 0;
    slot.pid <- -1;
    slot.state <- Respawning (Budget.now ())
  in

  let dispatch () =
    Array.iter
      (fun slot ->
        match slot.state with
        | Idle when queue_depth () > 0 ->
            let job =
              match !requeued with
              | j :: rest ->
                  requeued := rest;
                  j
              | [] -> Queue.pop pending
            in
            update_depth ();
            job.attempts <- job.attempts + 1;
            let kill =
              Chaos.fire config.chaos (kill_point ~jid:job.jid ~attempt:job.attempts)
            in
            let poison =
              config.certify
              && Chaos.fire config.chaos (cert_point ~jid:job.jid ~attempt:job.attempts)
            in
            let frame =
              Ipc.frame_string
                (Proto.wreq_to_json
                   {
                     Proto.jid = job.jid;
                     text = job.text;
                     timeout_s = job.timeout_s;
                     kill;
                     sleep_s = job.sleep_s;
                     trace = (if Obs.Trace.enabled () then Some job.trace else None);
                     cert = config.certify;
                     escalate = job.escalate;
                     poison;
                   })
            in
            (match write_frame_waiting slot.wfd (Bytes.of_string frame) with
            | () ->
                (* the budget clock starts at dispatch (the worker's sleep
                   hook runs inside it), so a worker still silent at
                   deadline + grace is stuck, not slow *)
                slot.state <-
                  Busy (job, Budget.now () +. job.timeout_s +. config.kill_grace_s)
            | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
                (* worker died between jobs; settle as a crash attempt *)
                slot.state <- Busy (job, Budget.now ());
                worker_died slot)
        | Idle | Busy _ | Respawning _ -> ())
      slots
  in

  let admit cid (req : Proto.request) =
    Span.with_ "serve.request" @@ fun () ->
    match req with
    | Proto.Ping -> send_reply cid Proto.Pong
    | Proto.Stats ->
        let workers =
          Array.fold_left
            (fun acc s -> match s.state with Respawning _ -> acc | Idle | Busy _ -> acc + 1)
            0 slots
        in
        send_reply cid
          (Proto.Stats_reply
             {
               workers;
               queue_depth = queue_depth ();
               metrics = Metrics.to_assoc (Metrics.snapshot ());
             })
    | Proto.Health ->
        let state_name s =
          match s.state with Idle -> "idle" | Busy _ -> "busy" | Respawning _ -> "respawning"
        in
        send_reply cid
          (Proto.Health_reply
             {
               Proto.live_workers =
                 Array.fold_left
                   (fun acc s -> match s.state with Respawning _ -> acc | Idle | Busy _ -> acc + 1)
                   0 slots;
               h_queue_depth = queue_depth ();
               in_flight =
                 Array.fold_left
                   (fun acc s -> match s.state with Busy _ -> acc + 1 | Idle | Respawning _ -> acc)
                   0 slots;
               draining = !draining;
               uptime_s = Budget.now () -. t_start;
               states = Array.to_list (Array.map state_name slots);
               lat_n = Metrics.window_count w_latency;
               lat_p50 = Metrics.quantile w_latency 0.5;
               lat_p95 = Metrics.quantile w_latency 0.95;
               lat_p99 = Metrics.quantile w_latency 0.99;
               h_metrics = Metrics.to_assoc (Metrics.snapshot ());
             })
    | Proto.Solve { text; timeout_s; sleep_s; want_cert } -> (
        Metrics.incr m_requests;
        if !draining then send_reply cid Proto.Draining
        else
          let timeout_s =
            Float.min config.max_timeout_s
              (match timeout_s with
              | Some s when s > 0. -> s
              | Some _ | None -> config.default_timeout_s)
          in
          match Dqbf.Pcnf.parse_string text with
          | exception Failure msg -> send_reply cid (Proto.Invalid msg)
          | pcnf -> (
              match Dqbf.Pcnf.validate pcnf with
              | Error msg -> send_reply cid (Proto.Invalid msg)
              | Ok () -> (
                  let canon = Dqbf.Canon.canonicalize pcnf in
                  let enqueue audit_of =
                    incr next_jid;
                    let trace = Printf.sprintf "serve-%d-%d" daemon_pid !next_jid in
                    ev "admit" ~trace
                      ~fields:
                        ([
                           ("jid", Json.Num (float_of_int !next_jid));
                           ("queue_depth", Json.Num (float_of_int (queue_depth () + 1)));
                         ]
                        @ if audit_of = None then [] else [ ("audit", Json.Bool true) ]);
                    Queue.push
                      {
                        jid = !next_jid;
                        cid;
                        key = canon.Dqbf.Canon.key;
                        text;
                        timeout_s;
                        sleep_s;
                        attempts = 0;
                        enqueued_at = Budget.now ();
                        trace;
                        audit_of;
                        want_cert = want_cert && config.certify;
                        escalate = false;
                      }
                      pending;
                    update_depth ()
                  in
                  match Cache.find cache canon.Dqbf.Canon.key with
                  | Some entry ->
                      incr hit_count;
                      Metrics.incr m_cache_hits;
                      let audit =
                        config.check_level = Check.Full
                        && config.audit_period > 0
                        && !hit_count mod config.audit_period = 0
                        && queue_depth () < config.queue_cap
                      in
                      if audit then enqueue (Some entry)
                      else
                        send_reply cid
                          (Proto.Verdict
                             {
                               sat = entry.Cache.sat;
                               elapsed_s = entry.Cache.elapsed_s;
                               cached = true;
                               audited = false;
                               cert = None;
                             })
                  | None ->
                      Metrics.incr m_cache_misses;
                      if queue_depth () >= config.queue_cap then begin
                        Metrics.incr m_shed;
                        Span.event "serve.shed" ();
                        ev "shed"
                          ~fields:[ ("queue_depth", Json.Num (float_of_int (queue_depth ()))) ];
                        send_reply cid (Proto.Overloaded { queue_depth = queue_depth () })
                      end
                      else enqueue None)))
  in

  let handle_client_input c =
    let rec frames () =
      match Ipc.next_frame c.crd with
      | None -> ()
      | Some (Error msg) ->
          send_reply c.cid (Proto.Invalid ("torn frame: " ^ msg));
          flush_client c;
          drop_client c
      | Some (Ok j) ->
          (match Proto.request_of_json j with
          | Ok req -> admit c.cid req
          | Error msg -> send_reply c.cid (Proto.Invalid msg));
          if Hashtbl.mem clients c.cid then frames ()
    in
    match read_avail c.cfd c.crd with
    | `Nothing -> ()
    | `Data -> frames ()
    | `Closed got ->
        (* a client that sent its request and hung up: admit the buffered
           frames first (the verdict is still computed and cached), then
           drop the connection *)
        if got then frames ();
        if Hashtbl.mem clients c.cid then drop_client c
  in

  let handle_worker_input slot =
    let rec frames () =
      match Ipc.next_frame slot.wrd with
      | None -> `Alive
      | Some (Error _) ->
          worker_died slot;
          `Settled
      | Some (Ok j) -> (
          match (Proto.wreply_of_json j, slot.state) with
          | Ok wr, Busy (job, _) when wr.Proto.w_jid = job.jid ->
              complete ~wpid:slot.pid job wr;
              slot.failures <- 0;
              if wr.Proto.retiring then begin
                worker_retired slot;
                `Settled
              end
              else begin
                slot.state <- Idle;
                frames ()
              end
          | Ok _, _ -> frames () (* stale frame from a superseded job *)
          | Error _, _ ->
              worker_died slot;
              `Settled)
    in
    match read_avail slot.wfd slot.wrd with
    | `Nothing -> ()
    | `Data -> ignore (frames ())
    | `Closed got ->
        (* a retiring worker's last reply can arrive in the same batch as
           its EOF: settle the frames first so a planned retirement is
           not misread as a crash *)
        let settled = if got then frames () else `Alive in
        if settled = `Alive then worker_died slot
  in

  (* late-worker wall kill: the request's deadline plus grace has passed
     without a reply — SIGKILL the worker's session and settle the job
     as a structured timeout (no retry: the instance earned its kill) *)
  let enforce_deadlines now =
    Array.iter
      (fun slot ->
        match slot.state with
        | Busy (job, kill_at) when now >= kill_at ->
            kill_group slot.pid Sys.sigkill;
            (try Unix.close slot.wfd with Unix.Unix_error _ -> ());
            ignore (waitpid_retry slot.pid);
            Metrics.incr m_timeouts;
            Span.event "serve.worker.wall_kill"
              ~attrs:[ ("worker", Obs.Int slot.widx); ("jid", Obs.Int job.jid) ]
              ();
            ev "timeout" ~trace:job.trace
              ~fields:
                [
                  ("worker", Json.Num (float_of_int slot.widx));
                  ("jid", Json.Num (float_of_int job.jid));
                ];
            send_reply job.cid
              (Proto.Failed
                 {
                   failure = Proto.F_timeout;
                   elapsed_s = now -. job.enqueued_at;
                   detail = "deadline expired; worker killed";
                 });
            slot.failures <- 0;
            slot.pid <- -1;
            slot.state <- Respawning now
        | Idle | Busy _ | Respawning _ -> ())
      slots
  in

  let respawn_due now =
    Array.iter
      (fun slot ->
        match slot.state with
        | Respawning at when now >= at ->
            if slot.pid >= 0 then () (* unreachable; pid cleared on death *)
            else begin
              Metrics.incr m_respawns;
              ev "respawn" ~fields:[ ("worker", Json.Num (float_of_int slot.widx)) ];
              spawn slot
            end
        | Idle | Busy _ | Respawning _ -> ())
      slots
  in

  (* initial pool, not counted as respawns *)
  Array.iter spawn slots;
  ev "start"
    ~fields:
      [
        ("workers", Json.Num (float_of_int config.workers));
        ("queue_cap", Json.Num (float_of_int config.queue_cap));
      ];
  let drain_logged = ref false in

  let accept_clients () =
    let rec go () =
      match Unix.accept listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          incr next_cid;
          Hashtbl.replace clients !next_cid
            { cid = !next_cid; cfd = fd; crd = Ipc.reader (); outq = []; off = 0 };
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> go ()
    in
    go ()
  in

  let all_flushed () = Hashtbl.fold (fun _ c acc -> acc && c.outq = []) clients true in
  let all_idle () =
    Array.for_all (fun s -> match s.state with Busy _ -> false | Idle | Respawning _ -> true) slots
  in

  let finished () =
    !draining && queue_depth () = 0 && all_idle () && all_flushed ()
  in

  while not (finished ()) do
    let now = Budget.now () in
    if !draining && not !drain_logged then begin
      drain_logged := true;
      ev "drain" ~fields:[ ("queue_depth", Json.Num (float_of_int (queue_depth ()))) ]
    end;
    enforce_deadlines now;
    respawn_due now;
    dispatch ();
    (* the OCaml-level SIGTERM handler only runs at a safe point after
       select returns, so the idle timeout bounds drain responsiveness —
       keep it short *)
    let wait =
      Array.fold_left
        (fun acc s ->
          match s.state with
          | Busy (_, kill_at) -> Float.min acc (kill_at -. now)
          | Respawning at -> Float.min acc (at -. now)
          | Idle -> acc)
        0.1 slots
    in
    let wait = Float.max 0.01 (if !draining then Float.min wait 0.05 else wait) in
    let worker_fds =
      Array.fold_left
        (fun acc s -> match s.state with Respawning _ -> acc | Idle | Busy _ -> s.wfd :: acc)
        [] slots
    in
    let rfds = (listen_fd :: Hashtbl.fold (fun _ c acc -> c.cfd :: acc) clients []) @ worker_fds in
    let wfds = Hashtbl.fold (fun _ c acc -> if c.outq = [] then acc else c.cfd :: acc) clients [] in
    let readable, writable, _ =
      match Unix.select rfds wfds [] wait with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [], [])
    in
    if List.memq listen_fd readable then accept_clients ();
    Array.iter
      (fun slot ->
        match slot.state with
        | Respawning _ -> ()
        | Idle | Busy _ -> if List.memq slot.wfd readable then handle_worker_input slot)
      slots;
    let snapshot = Hashtbl.fold (fun _ c acc -> c :: acc) clients [] in
    List.iter
      (fun c -> if Hashtbl.mem clients c.cid && List.memq c.cfd readable then handle_client_input c)
      snapshot;
    List.iter
      (fun c ->
        if Hashtbl.mem clients c.cid && (List.memq c.cfd writable || c.outq <> []) then
          flush_client c)
      snapshot;
    dispatch ()
  done;

  (* graceful shutdown: workers get EOF on their request channel and
     exit 0; everything else is closed and the socket path removed *)
  Array.iter
    (fun slot ->
      match slot.state with
      | Respawning _ -> ()
      | Idle | Busy _ ->
          (try Unix.close slot.wfd with Unix.Unix_error _ -> ());
          if slot.pid >= 0 then ignore (waitpid_retry slot.pid))
    slots;
  Hashtbl.iter (fun _ c -> try Unix.close c.cfd with Unix.Unix_error _ -> ()) clients;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove config.socket_path with Sys_error _ -> ());
  Cache.close cache;
  ev "stop" ~fields:[ ("uptime_s", Json.Num (Budget.now () -. t_start)) ];
  (match elog with Some t -> Exec.Eventlog.close t | None -> ());
  (match config.trace_path with
  | Some path ->
      List.iter
        (fun { Metrics.name; kind = _; v } ->
          if String.length name >= 6 && String.sub name 0 6 = "serve." then
            Span.event "serve.metric" ~attrs:[ ("name", Obs.Str name); ("value", Obs.Float v) ] ())
        (Metrics.snapshot ());
      Obs.Trace.write_chrome_json path;
      Obs.Trace.reset ()
  | None -> ());
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int
