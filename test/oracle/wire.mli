(** The [Printf] reply encoder [Serve.Wire] replaced, kept as the
    reference its byte output is checked against. *)

val float_to_string : float -> string
(** [%.12g] when that parses back to the same float, else [%.17g]. *)

val encode_response : Serve.Wire.response -> string
