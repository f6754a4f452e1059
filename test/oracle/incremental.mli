(** {!Jq.Incremental} with every pass over the whole key window, kept as
    the bitwise reference for the production kernel. *)

type t

val create : ?num_buckets:int -> ?alpha:float -> unit -> t
val add_worker : t -> float -> unit
val remove_worker : t -> float -> unit
val reset : t -> unit
val value : t -> float
val size : t -> int
val convolved : t -> int
val coins : t -> int
val rebuilds : t -> int
val error_bound : t -> float
