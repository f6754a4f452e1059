(* In-memory spans, written out once when the benchmark ends.  A span has
   a name, start and end on the monotonic clock, the span that caused it
   ([-1] for a root) and the id of the request it belongs to.  Shadow
   kernel calls made after a request are recorded under the request's id
   with its [service.submit] span as parent, so a span's self time is its
   duration minus its children's. *)

(* Request ids: the [i]th timed request of connection [c] is
   [c * 10^6 + i], set-up and final readback requests are negative, and a
   client round trip of TCP round [k] adds [(k + 1) * 10^7] to its
   request's id. *)
let conn_req c i = (c * 1_000_000) + i
let setup_req i = -(i + 1)
let final_req i = -(1_000_000 + i)
let round_req k req = ((k + 1) * 10_000_000) + req
let script_req req = req mod 10_000_000
let timed req = req >= 0 && req < 10_000_000

type span = {
  name : string;
  start : float;
  stop : float;
  parent : int;
  req : int;
}

type t = { mutable spans : span array; mutable len : int }

let create () = { spans = [||]; len = 0 }

let add t ~name ~parent ~req ~start ~stop =
  if t.len = Array.length t.spans then begin
    let grown =
      Array.make (max 1024 (2 * t.len)) { name; start; stop; parent; req }
    in
    Array.blit t.spans 0 grown 0 t.len;
    t.spans <- grown
  end;
  t.spans.(t.len) <- { name; start; stop; parent; req };
  t.len <- t.len + 1;
  t.len - 1

(* Time [f ()] as a span. *)
let span t ~name ~parent ~req f =
  let start = Serve.Clock.now () in
  let v = f () in
  let id = add t ~name ~parent ~req ~start ~stop:(Serve.Clock.now ()) in
  (id, v)

let duration s = s.stop -. s.start
let iter t f = for i = 0 to t.len - 1 do f i t.spans.(i) done

(* Durations in seconds of the spans named [name] whose request satisfies
   [keep]. *)
let durations ?(keep = fun _ -> true) t name =
  let acc = ref [] in
  iter t (fun _ s -> if s.name = name && keep s.req then acc := duration s :: !acc);
  Array.of_list (List.rev !acc)

(* Self time of every span named [name]: its duration minus its direct
   children's durations. *)
let self_times ?(keep = fun _ -> true) t name =
  let children = Array.make t.len 0. in
  iter t (fun _ s ->
      if s.parent >= 0 then
        children.(s.parent) <- children.(s.parent) +. duration s);
  let acc = ref [] in
  iter t (fun i s ->
      if s.name = name && keep s.req then acc := (duration s -. children.(i)) :: !acc);
  Array.of_list (List.rev !acc)

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tname\tstart_s\tend_s\tparent\treq\n";
      iter t (fun i s ->
          Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%d\t%d\n" i s.name s.start s.stop
            s.parent s.req))
