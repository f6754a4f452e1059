(** The flat path of {!Jq.Bucket.estimate_stats} with every scan over the
    whole key window, kept as the bitwise reference for the production
    kernel. *)

val estimate_stats :
  ?workspace:Jq.Workspace.t ->
  ?num_buckets:int ->
  ?pruning:bool ->
  ?high_quality_shortcut:bool ->
  ?alpha:float ->
  float array ->
  Jq.Bucket.stats
