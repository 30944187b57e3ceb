(** Growable int array, used as scratch by the index-native algorithms
    ({!Compose}, {!Verify}, {!Synthesis}) to accumulate transition
    triples, state maps and BFS queues without consing a list cell per
    element. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int

val set : t -> int -> int -> unit
(** In-place update of an already-pushed element; the parallel product
    construction buffers destination {e keys} during expansion and
    patches them to state indices once the level's insertions are
    published. *)

val pop : t -> int
(** Remove and return the last element (LIFO use as a worklist stack).
    Raises [Invalid_argument] when empty. *)

val clear : t -> unit
(** Reset the length to zero, keeping the backing storage — per-round
    reuse of frontier and spill buffers. *)

val to_array : t -> int array
