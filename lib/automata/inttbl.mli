(** Open-addressing table from non-negative ints to non-negative ints
    (linear probing, power-of-two capacity, grown at half load): the
    state map shared by {!Compose.pair}, {!Verify.controllable} and the
    sharded {!Synthesis} engine.  Keys are joint-state encodings, values
    state indices; nothing is boxed and no operation but growth
    allocates. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty table with at least [capacity] slots (default 4,096,
    rounded up to a power of two, at least 16).  It holds up to half
    its slots before growing, so a caller expecting [n] keys can pass
    [2 * n] to never grow. *)

val hash : int -> int
(** The non-negative slot hash; the synthesis engine also shards joint
    states by it. *)

val put : t -> int -> int -> int
(** [put t key v] inserts [key -> v] if [key] is absent and returns
    [-1]; otherwise leaves the table unchanged and returns the value
    already stored.  Values must be non-negative, so [-1] is never a
    stored value.  Raises [Invalid_argument] on a negative key, before
    touching the table. *)

val find : t -> int -> int
(** The value stored for [key], or [-1] when absent.  Raises
    [Invalid_argument] on a negative key. *)

val release : t -> unit
(** Empty the table and drop its storage, so it can be collected while
    the table value is still reachable; a later [put] starts again at
    16 slots. *)
