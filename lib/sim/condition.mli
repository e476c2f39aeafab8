(** Condition variables for simulated processes.

    [wait] suspends the calling process until another process calls
    [signal] or [broadcast].  There is no separate mutex: the engine is
    cooperative, so the classic "recheck the predicate in a loop" pattern
    is still required (a waiter may be overtaken between wake-up and
    resumption), but no data race is possible. *)

type t

val create : unit -> t

val wait : t -> unit
(** Suspend the calling process until signalled.  Must run inside a
    process. *)

val signal : t -> unit
(** Wake the longest-waiting process, if any. *)

val broadcast : t -> unit
(** Wake every waiting process. *)

val waiters : t -> int
(** Number of currently suspended waiters (diagnostic). *)

type set
(** A fixed group of conditions to wait on together. *)

val set : t list -> set
(** Build once, wait on many times: {!wait_set} allocates no list or
    closure of its own. *)

val wait_set : set -> unit
(** [wait_any] over the set's conditions, with the same caveat. *)

val wait_any : t list -> unit
(** Suspend until any of the conditions is signalled.  Only sound for
    conditions that are always woken with {!broadcast}: after wake-up a
    stale waker may remain registered on the other conditions, and a
    [signal] delivered to a stale waker would be swallowed. *)
