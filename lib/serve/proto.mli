(** Wire protocol of the serve daemon, both sides.

    Everything travels as length-prefixed {!Obs.Json} frames
    ({!Exec.Ipc}). The client protocol is request/reply over a Unix
    domain socket: one [Solve] per connection is the supported shape
    ([hqs query]); a connection that pipelines several solves receives
    the replies in completion order, not submission order. The worker
    protocol runs over a private socketpair between the daemon and each
    pool worker and is not a public interface — it is exposed here so
    the daemon and its tests share one codec. *)

type request =
  | Solve of {
      text : string;  (** the DQDIMACS instance, verbatim *)
      timeout_s : float option;  (** per-request deadline; daemon default if absent *)
      sleep_s : float;
          (** test hook: the worker sleeps this long {e inside} the solve
              budget before solving, so a sleep past [timeout_s] expires
              the budget deterministically — makes deadline-expiry, queue
              and drain tests repeatable. 0 in production. *)
      want_cert : bool;
          (** ask for the solve's certificate artifact inline in the
              {!Verdict} reply (only honored by a daemon running with
              certification on) *)
    }
  | Ping
  | Stats
  | Health  (** live introspection snapshot for [hqs top] *)

type failure = F_timeout | F_memout | F_crash

(** Introspection snapshot returned for {!Health}: pool occupancy plus
    rolling request-latency quantiles from the daemon's windowed
    histogram. Quantiles are [nan] (and omitted on the wire) until at
    least one request has completed. *)
type health = {
  live_workers : int;  (** slots with a live worker process *)
  h_queue_depth : int;
  in_flight : int;  (** slots currently solving *)
  draining : bool;
  uptime_s : float;
  states : string list;  (** one of ["idle"|"busy"|"respawning"] per slot *)
  lat_n : int;  (** observations in the latency window *)
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  h_metrics : (string * float) list;
}

type reply =
  | Verdict of {
      sat : bool;
      elapsed_s : float;
      cached : bool;
      audited : bool;
      cert : string option;
          (** the rendered certificate artifact, inline, when the request
              asked for one and the certifying solve produced it ([None]
              for cache hits — the cache stores verdicts, not artifacts) *)
    }
  | Failed of { failure : failure; elapsed_s : float; detail : string }
      (** structured failure — the client never sees a torn connection *)
  | Overloaded of { queue_depth : int }  (** admission queue full; retry later *)
  | Draining  (** daemon is shutting down; new work refused *)
  | Invalid of string  (** unparsable request or instance *)
  | Pong
  | Stats_reply of { workers : int; queue_depth : int; metrics : (string * float) list }
  | Health_reply of health
  | Audit_failed of { cached_sat : bool; fresh_sat : bool }
      (** a sampled cache-hit re-solve disagreed with the memoized verdict *)

val failure_name : failure -> string
val failure_of_name : string -> failure option

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result
val reply_to_json : reply -> Obs.Json.t
val reply_of_json : Obs.Json.t -> (reply, string) result

(** {1 Worker protocol (daemon-internal)} *)

type wreq = {
  jid : int;
  text : string;
  timeout_s : float;
  kill : bool;  (** chaos: the worker SIGKILLs itself mid-request *)
  sleep_s : float;
  trace : string option;
      (** request trace id, present only while the daemon is tracing —
          the worker brackets the solve in a span carrying it, so worker
          rows in the merged trace link back to the daemon's request *)
  cert : bool;
      (** solve through {!Hqs.solve_pcnf_certified} and ship the rendered
          artifact back in [cert_blob] *)
  escalate : bool;
      (** this is a re-solve after a certificate audit failure: the
          worker runs with checks forced to [Full] and degradation off *)
  poison : bool;
      (** chaos: the worker corrupts the certificate before its own audit
          — the deterministic fault injection for the recovery loop *)
}

type wresult =
  | W_sat of bool
  | W_timeout
  | W_memout
  | W_error of string
  | W_cert_failed of string
      (** the in-worker certificate audit tripped ({!Check.Violation} at
          the [Post_certify] stage) — the daemon treats this like a
          crash: evict the cache entry, retry escalated, quarantine *)

type wreply = {
  w_jid : int;
  result : wresult;
  w_elapsed_s : float;
  retiring : bool;
      (** the worker exits right after this reply (e.g. after a hard
          memout left its heap near the rlimit) — a planned retirement
          the daemon must not count as a crash *)
  samples : Obs.Metrics.sample list;  (** per-job metrics delta to absorb *)
  w_events : Obs.Trace.event list;
      (** the worker's span buffer for this job (empty unless the request
          carried a trace id) — merged under the worker's pid row via
          {!Obs.Trace.inject} *)
  cert_blob : string option;
      (** the rendered certificate on a successful certifying solve *)
}

val wreq_to_json : wreq -> Obs.Json.t
val wreq_of_json : Obs.Json.t -> (wreq, string) result
val wreply_to_json : wreply -> Obs.Json.t
val wreply_of_json : Obs.Json.t -> (wreply, string) result
