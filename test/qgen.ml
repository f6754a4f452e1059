(* QCheck generators shared by the property tests. *)

(* [float_range lo hi] with a shrinker that works: QCheck2's own raises
   while shrinking whenever lo > hi - lo, so a failing property would
   report a crash instead of a counterexample. *)
let float_in lo hi = QCheck2.Gen.(map (fun x -> lo +. x) (float_bound_inclusive (hi -. lo)))
