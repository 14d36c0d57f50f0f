(** Process-isolated supervised task executor.

    Each task runs in a forked child in its own session/process group,
    under kernel resource limits ({!Limits}); results travel back to the
    parent over a pipe as length-prefixed JSON frames ({!Ipc}): any
    number of throttled ["partial"] state flushes (latest metric delta
    plus span buffer, written at span exits) followed by one final result
    frame. The parent uses the newest partial only when the final frame
    never arrives (the attempt was killed), salvaging the metrics and
    trace of a timed-out worker.

    When tracing is enabled in the parent, the run is stitched into one
    multi-process trace: the supervisor emits a [sup.task] span per
    attempt on a per-task thread row carrying [trace_id]/[span_id] args,
    each worker opens a [sup.child] root span carrying the matching
    [parent_span] link, and worker span buffers are merged under their
    own pid rows via {!Obs.Trace.inject} (mid-span deaths are repaired
    and flagged [truncated]).
    The parent multiplexes up to [jobs] workers with [select], classifies
    every child death, retries transient crashes on a deterministic
    backoff schedule ({!Backoff}), quarantines a task as {!Crash} after
    [max_attempts], and optionally journals every completion to a
    crash-safe JSONL file ({!Journal}) so an interrupted sweep can be
    [?resume]d without re-running finished tasks.

    Crash taxonomy (how a child death maps to a {!status}):
    - clean exit 0 + ["ok"] frame — {!Value} (child metric deltas are
      {!Obs.Metrics.absorb}ed into the parent registry)
    - clean exit 0 + ["memout"] frame — {!Memout} (the child's allocator
      hit [RLIMIT_AS] or the in-process governor and raised
      [Out_of_memory])
    - parent wall-deadline SIGKILL of the process group — {!Timeout}
    - death by [SIGXCPU] (soft [RLIMIT_CPU]) — {!Timeout}
    - anything else — nonzero exit, other fatal signal, ["error"] frame
      (worker exception, incl. [Stack_overflow]), or a torn/invalid frame
      — is a crash {e attempt}: retried after backoff, {!Crash} once
      [max_attempts] are exhausted. *)

type status =
  | Value of Obs.Json.t  (** worker returned this payload *)
  | Timeout of float  (** wall or CPU limit hit after [s] seconds *)
  | Memout of float  (** memory limit hit after [s] seconds *)
  | Crash of float  (** quarantined after exhausting retries *)

type completion = {
  task_id : string;
  status : status;
  attempts : int;  (** worker processes spawned for this task *)
  worker_pid : int;  (** pid of the final attempt (0 if journaled pre-fork) *)
  elapsed_s : float;  (** wall time of the final attempt *)
  crash_log : string list;  (** one line per failed attempt, oldest first *)
  from_journal : bool;  (** true: replayed from [?resume], not executed *)
  salvaged_metrics : Obs.Metrics.sample list;
      (** on {!Timeout}/{!Memout}: the worker's last registry delta,
          recovered from its final result frame or from the newest
          throttled partial frame it flushed before being killed —
          exactly the data that explains where the budget went. [[]] for
          clean completions. *)
}

type config = {
  jobs : int;  (** concurrent workers, >= 1 *)
  limits : Limits.t;  (** per-child kernel limits *)
  max_attempts : int;  (** spawns before quarantine, >= 1 *)
  backoff : Backoff.policy;  (** retry delay schedule *)
  chaos : Hqs_util.Chaos.t;  (** fault plan forwarded into children *)
}

val default_config : config
(** 1 job, no limits, 3 attempts, {!Backoff.default}, chaos off. *)

type report = {
  completions : completion list;  (** one per task, in input order *)
  executed : int;  (** worker processes actually spawned *)
  journaled : int;  (** tasks satisfied from the resume journal *)
  journal_dropped : int;  (** torn/corrupt resume lines skipped *)
}

val run :
  ?config:config ->
  ?journal:string ->
  ?resume:string ->
  ?on_complete:(completion -> unit) ->
  worker:('a -> Obs.Json.t) ->
  (string * 'a) list ->
  report
(** [run ~worker tasks] executes every [(id, payload)] task in a forked
    child and returns all completions in input order.

    [?journal] appends each completion to a crash-safe JSONL file as it
    finishes. [?resume] pre-loads completions from such a file: tasks
    with a checksum-valid line are reported [from_journal] and never
    forked (they still reach [?on_complete]). The same path may be given
    for both, so repeated [--resume J --journal J] sweeps converge.
    [?on_complete] observes completions as they land, in completion
    order, for progress output.

    The worker callback runs in the {e child} process; it must return its
    result as JSON (or raise — [Out_of_memory] becomes {!Memout},
    anything else a crash attempt). The parent never runs worker code.

    @raise Invalid_argument on duplicate task ids or a nonsensical
    config. *)

val signal_name : int -> string
(** Human name for an OCaml [Sys] signal number (["SIGKILL"], ...). *)

val completion_to_json : completion -> Obs.Json.t
(** The journal payload for a completion, exposed for tests. *)

val completion_of_json : task_id:string -> Obs.Json.t -> completion option
(** Decode a journal payload; [None] if malformed. The result has
    [from_journal = true]. *)
