type standing = {
  budget : float;
  prior : float list;
  seed : int;
  mutable jury : int list;
}

type entry = {
  mutable pool : Engine.Pool.t;
  template : Engine.Pool.t; (* ids / names / costs as uploaded *)
  mutable version : int;
  calib : Workers.Calib.t;
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

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

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

let upsert t ~name pool =
  with_lock t (fun () ->
      t.generation <- t.generation + 1;
      let entry =
        {
          pool;
          template = pool;
          version = t.generation;
          calib = Workers.Calib.create ~config:t.calib_config ~base:(calib_base pool) ();
          stale = false;
          standing = [];
        }
      in
      Hashtbl.replace t.table name entry;
      t.generation)

(* ---- calls under a held lock ----------------------------------------- *)

type held = t

let locked t f = with_lock t (fun () -> f t)

let try_locked t f =
  if Mutex.try_lock t.lock then (
    match f t with
    | v ->
        Mutex.unlock t.lock;
        Some v
    | exception e ->
        Mutex.unlock t.lock;
        raise e)
  else None

module Held = struct
  let find t name =
    Option.map
      (fun (e : entry) -> (e.pool, e.version))
      (Hashtbl.find_opt t.table name)

  let quality t ~name =
    match Hashtbl.find_opt t.table name with
    | None -> None
    | Some entry ->
        let ids = Array.of_list (Engine.Pool.ids entry.pool) in
        let rows =
          List.init (Array.length ids) (fun i ->
              ( ids.(i),
                Workers.Calib.quality entry.calib i,
                Workers.Calib.votes_seen entry.calib i ))
        in
        Some (rows, entry.version)

  let note_standing t ~name ~budget ~prior ~seed ~jury =
    match Hashtbl.find_opt t.table name with
    | None -> ()
    | Some entry ->
        let same s = s.budget = budget && s.prior = prior && s.seed = seed in
        let rest = List.filter (fun s -> not (same s)) entry.standing in
        let spec = { budget; prior; seed; jury } in
        let keep = min (t.standing_cap - 1) (List.length rest) in
        entry.standing <- spec :: List.filteri (fun i _ -> i < keep) rest
end

let find t name = locked t (fun h -> Held.find h name)

let list t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun name (e : entry) acc -> (name, e.version, Engine.Pool.size e.pool) :: acc)
        t.table []
      |> List.sort compare)

let size t = with_lock t (fun () -> Hashtbl.length t.table)

(* Fold a completed calibration step into the entry: rebuild the pool and
   bump the registry-wide generation so every version-keyed cache built
   against the old quality state retires. *)
let absorb t (entry : entry) (r : Workers.Calib.step_result) =
  if r.applied > 0 || r.changed then begin
    entry.pool <- rebuild_pool entry.template entry.calib;
    t.generation <- t.generation + 1;
    entry.version <- t.generation
  end;
  if r.drifted <> [] then begin
    entry.stale <- true;
    t.drift_total <- t.drift_total + List.length r.drifted
  end;
  {
    version = entry.version;
    applied = r.applied;
    pending = Workers.Calib.pending entry.calib;
    drifted = r.drifted;
    stale = entry.stale;
  }

let ingest_of (entry : entry) =
  {
    version = entry.version;
    applied = 0;
    pending = Workers.Calib.pending entry.calib;
    drifted = [];
    stale = entry.stale;
  }

let report t ~name votes =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table name with
      | None -> Error `Unknown_pool
      | Some entry -> (
          match Workers.Calib.feed entry.calib votes with
          | Error msg -> Error (`Invalid msg)
          | Ok _ ->
              if Workers.Calib.due entry.calib then
                Ok (absorb t entry (Workers.Calib.step entry.calib))
              else Ok (ingest_of entry)))

let recal t ~name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table name with
      | None -> Error `Unknown_pool
      | Some entry -> Ok (absorb t entry (Workers.Calib.recalibrate entry.calib)))

let standing t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table name with
      | None -> []
      | Some entry ->
          List.map (fun s -> (s.budget, s.prior, s.seed, s.jury)) entry.standing)

let refresh_standing t ~name ~juries =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table name with
      | None -> ()
      | Some entry ->
          List.iter
            (fun (budget, prior, seed, jury) ->
              List.iter
                (fun s ->
                  if s.budget = budget && s.prior = prior && s.seed = seed then
                    s.jury <- jury)
                entry.standing)
            juries;
          entry.stale <- false)

let clear_stale t ~name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table name with
      | None -> ()
      | Some entry -> entry.stale <- false)

let stale_pools t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun _ (e : entry) acc -> if e.stale then acc + 1 else acc)
        t.table 0)

let drift_total t = with_lock t (fun () -> t.drift_total)
