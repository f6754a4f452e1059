type standing = { budget : float; prior : float list; seed : int }

(* [calib] is touched only under [calib_lock]; the mutable fields only
   under the registry lock. *)
type entry = {
  template : Engine.Pool.t; (* ids / names / costs as uploaded *)
  calib : Workers.Calib.t;
  calib_lock : Mutex.t;
  mutable pool : Engine.Pool.t;
  mutable version : int;
  mutable rows : (int * float * int) list; (* quality rows, last published *)
  mutable stale : bool;
  mutable standing : standing list; (* most recent first, bounded *)
}

type t = {
  mutable generation : int;
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  calib_config : Workers.Calib.config;
  standing_cap : int;
  mutable drift_total : int;
}

type ingest = {
  version : int;
  applied : int;
  pending : int;
  drifted : Workers.Calib.drift list;
  stale : bool;
}

let create ?(calib_config = Workers.Calib.default_config) ?(standing_cap = 8) () =
  {
    generation = 0;
    table = Hashtbl.create 16;
    lock = Mutex.create ();
    calib_config;
    standing_cap;
    drift_total = 0;
  }

let with_lock t f = Mutex.protect t.lock f

(* [f] applied to the named entry, under one short hold of the registry
   lock. *)
let read t name f =
  with_lock t (fun () -> Option.map f (Hashtbl.find_opt t.table name))

let calib_base pool =
  match Engine.Pool.repr pool with
  | Engine.Pool.Binary p -> Workers.Calib.Scalar (Workers.Pool.qualities p)
  | Engine.Pool.Matrix cs ->
      Workers.Calib.Matrix
        (Array.map
           (fun c ->
             Array.init (Workers.Confusion.labels c) (Workers.Confusion.row c))
           cs)

(* Rebuild the served pool from the template's ids/names/costs and the
   calibrator's current estimates, preserving the representation. *)
let rebuild_pool template calib =
  match Engine.Pool.repr template with
  | Engine.Pool.Binary p ->
      let workers =
        Array.mapi
          (fun i w ->
            Workers.Worker.make ~name:(Workers.Worker.name w)
              ~id:(Workers.Worker.id w)
              ~quality:(Workers.Calib.quality calib i)
              ~cost:(Workers.Worker.cost w) ())
          (Workers.Pool.to_array p)
      in
      Engine.Pool.of_workers (Workers.Pool.of_array workers)
  | Engine.Pool.Matrix cs ->
      Engine.Pool.of_confusions
        (Array.mapi
           (fun i c ->
             Workers.Confusion.make ~name:(Workers.Confusion.name c)
               ~id:(Workers.Confusion.id c)
               ~matrix:(Workers.Calib.confusion calib i)
               ~cost:(Workers.Confusion.cost c) ())
           cs)

(* (worker id, current quality, votes seen) in pool order. *)
let quality_rows template calib =
  List.mapi
    (fun i id -> (id, Workers.Calib.quality calib i, Workers.Calib.votes_seen calib i))
    (Engine.Pool.ids template)

let upsert t ~name pool =
  let calib = Workers.Calib.create ~config:t.calib_config ~base:(calib_base pool) () in
  let entry =
    {
      template = pool;
      calib;
      calib_lock = Mutex.create ();
      pool;
      version = 0;
      rows = quality_rows pool calib;
      stale = false;
      standing = [];
    }
  in
  with_lock t (fun () ->
      t.generation <- t.generation + 1;
      entry.version <- t.generation;
      Hashtbl.replace t.table name entry;
      t.generation)

let find t name = read t name (fun e -> (e.pool, e.version))

let list t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun name (e : entry) acc -> (name, e.version, Engine.Pool.size e.pool) :: acc)
        t.table [])
  |> List.sort compare

let size t = with_lock t (fun () -> Hashtbl.length t.table)
let quality t ~name = read t name (fun e -> (e.rows, e.version))

let note_standing t ~name ~budget ~prior ~seed =
  ignore
    (read t name (fun entry ->
         let same s = s.budget = budget && s.prior = prior && s.seed = seed in
         let rest = List.filter (fun s -> not (same s)) entry.standing in
         let keep = min (t.standing_cap - 1) (List.length rest) in
         entry.standing <-
           { budget; prior; seed } :: List.filteri (fun i _ -> i < keep) rest))

let standing t name =
  Option.value ~default:[]
    (read t name (fun entry ->
         List.map (fun s -> (s.budget, s.prior, s.seed)) entry.standing))

(* ---- calibration ----------------------------------------------------- *)

(* Run [f] on the named entry under its calibration mutex, holding the
   registry lock only to look the entry up.  [f] takes the registry lock
   again to publish: the calibration mutex always comes first. *)
let calibrating t ~name f =
  match read t name Fun.id with
  | None -> Error `Unknown_pool
  | Some entry -> Mutex.protect entry.calib_lock (fun () -> f entry)

(* The reply to a calibration call; under the registry lock. *)
let reply_of (entry : entry) ~applied ~pending ~drifted =
  { version = entry.version; applied; pending; drifted; stale = entry.stale }

(* Publish a completed step of [entry]'s calibrator: the rebuilt pool and
   quality rows are built first, and the registry lock is held only to
   install them.  A step that applied votes or moved an estimate bumps the
   registry-wide generation, so every version-keyed cache built against
   the old quality state retires.  If a pool-put replaced the entry
   meanwhile, the step publishes nothing and is answered with the replaced
   entry's version: the put reset that calibrator anyway, so the call is
   ordered before it. *)
let absorb t ~name entry (r : Workers.Calib.step_result) =
  let pool =
    if r.applied > 0 || r.changed then Some (rebuild_pool entry.template entry.calib)
    else None
  in
  let rows = quality_rows entry.template entry.calib in
  let pending = Workers.Calib.pending entry.calib in
  with_lock t (fun () ->
      (match Hashtbl.find_opt t.table name with
      | Some e when e == entry ->
          Option.iter
            (fun pool ->
              entry.pool <- pool;
              t.generation <- t.generation + 1;
              entry.version <- t.generation)
            pool;
          entry.rows <- rows;
          if r.drifted <> [] then begin
            entry.stale <- true;
            t.drift_total <- t.drift_total + List.length r.drifted
          end
      | _ -> ());
      reply_of entry ~applied:r.applied ~pending ~drifted:r.drifted)

let report t ~name votes =
  calibrating t ~name (fun entry ->
      match Workers.Calib.feed entry.calib votes with
      | Error msg -> Error (`Invalid msg)
      | Ok pending ->
          if Workers.Calib.due entry.calib then
            Ok (absorb t ~name entry (Workers.Calib.step entry.calib))
          else Ok (with_lock t (fun () -> reply_of entry ~applied:0 ~pending ~drifted:[])))

let recal t ~name =
  calibrating t ~name (fun entry ->
      Ok (absorb t ~name entry (Workers.Calib.recalibrate entry.calib)))

let clear_stale t ~name = ignore (read t name (fun entry -> entry.stale <- false))

let stale_pools t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun _ (e : entry) acc -> if e.stale then acc + 1 else acc)
        t.table 0)

let drift_total t = with_lock t (fun () -> t.drift_total)
