(* A value built at most once per process, from any domain. See once.mli. *)

type 'a t = { m : Mutex.t; build : unit -> 'a; value : 'a option Atomic.t }

let make build = { m = Mutex.create (); build; value = Atomic.make None }

let get t =
  match Atomic.get t.value with
  | Some v -> v
  | None ->
      Mutex.protect t.m (fun () ->
          match Atomic.get t.value with
          | Some v -> v
          | None ->
              let v = t.build () in
              Atomic.set t.value (Some v);
              v)
