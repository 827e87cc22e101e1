let recommended_jobs () = Domain.recommended_domain_count ()

(* Span sites guard on [Span.enabled] before building arg lists so the
   disabled path allocates nothing. *)
let span_task i remaining =
  if Fpx_obs.Span.enabled () then
    Fpx_obs.Span.begin_ ~cat:"sched"
      ~args:[ ("i", Fpx_obs.Trace.I i);
              ("queue_remaining", Fpx_obs.Trace.I remaining) ]
      "sched.task"

let span_end () = if Fpx_obs.Span.enabled () then Fpx_obs.Span.end_ ()

module Pool = struct
  type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

  let capture f =
    try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())

  let unwrap = function
    | Ok v -> v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt

  (* The one write-once completion cell. Results and exceptions both
     travel through it, so [await] reproduces the outcome exactly. *)
  type 'a future = {
    fm : Mutex.t;
    fc : Condition.t;
    mutable state : 'a outcome option;
  }

  let promise () =
    { fm = Mutex.create (); fc = Condition.create (); state = None }

  let fulfil fut r =
    Mutex.lock fut.fm;
    if Option.is_some fut.state then begin
      Mutex.unlock fut.fm;
      invalid_arg "Sched.Pool.fulfil: already fulfilled"
    end;
    fut.state <- Some r;
    Condition.broadcast fut.fc;
    Mutex.unlock fut.fm

  let await fut =
    Mutex.lock fut.fm;
    while Option.is_none fut.state do
      Condition.wait fut.fc fut.fm
    done;
    let r = Option.get fut.state in
    Mutex.unlock fut.fm;
    unwrap r

  (* A fixed set of worker domains spawned once and fed through a
     mutex-guarded queue: the domain-spawn cost is paid at [create],
     not per request. A task is a pre-packed closure that computes its
     outcome (never raising) and returns the step publishing it, so the
     queue needs no existential wrapper. The worker takes the task off
     [running] before publishing: a caller woken by [await] must never
     still count its own task in [in_flight], which serve's admission
     control reads. *)
  type t = {
    m : Mutex.t;
    work : Condition.t;
    q : (unit -> unit -> unit) Queue.t;
    mutable queued : int;  (* tasks enqueued, not yet picked up *)
    mutable running : int;  (* tasks currently executing on a worker *)
    mutable stop : bool;
    mutable workers : unit Domain.t list;
  }

  let worker pool () =
    let rec loop () =
      Mutex.lock pool.m;
      while Queue.is_empty pool.q && not pool.stop do
        Condition.wait pool.work pool.m
      done;
      if Queue.is_empty pool.q then Mutex.unlock pool.m (* stop *)
      else begin
        let task = Queue.pop pool.q in
        pool.queued <- pool.queued - 1;
        pool.running <- pool.running + 1;
        Mutex.unlock pool.m;
        let publish = task () in
        Mutex.lock pool.m;
        pool.running <- pool.running - 1;
        Mutex.unlock pool.m;
        publish ();
        loop ()
      end
    in
    loop ()

  let create ~jobs =
    if jobs < 1 then invalid_arg "Sched.Pool.create: jobs < 1";
    let pool =
      { m = Mutex.create (); work = Condition.create ();
        q = Queue.create (); queued = 0; running = 0; stop = false;
        workers = [] }
    in
    pool.workers <- List.init jobs (fun _ -> Domain.spawn (worker pool));
    pool

  let in_flight pool =
    Mutex.lock pool.m;
    let n = pool.queued + pool.running in
    Mutex.unlock pool.m;
    n

  let enqueue pool task =
    Mutex.lock pool.m;
    if pool.stop then begin
      Mutex.unlock pool.m;
      invalid_arg "Sched.Pool: submit after shutdown"
    end;
    Queue.add task pool.q;
    pool.queued <- pool.queued + 1;
    Condition.signal pool.work;
    Mutex.unlock pool.m

  let submit pool f =
    let fut = promise () in
    enqueue pool (fun () ->
        let r = capture f in
        fun () -> fulfil fut r);
    fut

  let run pool f = await (submit pool f)

  let shutdown pool =
    Mutex.lock pool.m;
    pool.stop <- true;
    Condition.broadcast pool.work;
    let workers = pool.workers in
    pool.workers <- [];
    Mutex.unlock pool.m;
    List.iter Domain.join workers
end

let map ~jobs f xs =
  match xs with
  | [] -> []
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let out = Array.make n None in
    let compute i =
      span_task i (n - 1 - i);
      Fun.protect ~finally:span_end (fun () ->
          out.(i) <- Some (Pool.capture (fun () -> f arr.(i))))
    in
    Fpx_obs.Span.with_ ~cat:"sched"
      ~args:
        (if Fpx_obs.Span.enabled () then
           [ ("jobs", Fpx_obs.Trace.I jobs); ("n", Fpx_obs.Trace.I n) ]
         else [])
      "sched.map"
      (fun () ->
        if jobs <= 1 then
          for i = 0 to n - 1 do
            compute i
          done
        else begin
          (* Index-stealing over the input array: workers grab the next
             unclaimed index, so results land in input slots regardless
             of which domain computed them. *)
          let next = Atomic.make 0 in
          let worker () =
            Fpx_obs.Span.with_ ~cat:"sched" "sched.worker" (fun () ->
                let continue = ref true in
                while !continue do
                  (* the claim span isolates fetch_and_add contention
                     from the task body that follows *)
                  if Fpx_obs.Span.enabled () then
                    Fpx_obs.Span.begin_ ~cat:"sched" "sched.claim";
                  let i = Atomic.fetch_and_add next 1 in
                  span_end ();
                  if i >= n then continue := false else compute i
                done)
          in
          let spawned =
            Fpx_obs.Span.with_ ~cat:"sched" "sched.spawn" (fun () ->
                Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker))
          in
          worker ();
          Fpx_obs.Span.with_ ~cat:"sched" "sched.join" (fun () ->
              Array.iter Domain.join spawned)
        end);
    (* Materialise in input order, so the first failing item (in input
       order) is the one re-raised. *)
    Fpx_obs.Span.with_ ~cat:"sched" "sched.materialize" (fun () ->
        Array.to_list
          (Array.map
             (function Some r -> Pool.unwrap r | None -> assert false)
             out))
