(* The persistent analysis service: the protocol JSON codec, the
   content-addressed result cache (hits byte-identical, config changes
   miss, LRU bound holds, concurrent same-key submissions coalesce),
   admission control (overload sheds with `degraded`, never hangs, and
   recovers), and a socket round trip through the real daemon including
   the HTTP /metrics endpoint. *)

module J = Fpx_obs.Json
module Cache = Fpx_serve.Cache
module Server = Fpx_serve.Server
module Client = Fpx_serve.Client
module Content = Fpx_store.Content
module Metrics = Fpx_obs.Metrics

let example_path name =
  let build = Filename.concat "../examples/sass" name in
  if Sys.file_exists build then build
  else Filename.concat "examples/sass" name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tmpdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fpx-serve-test-%d-%d" (Unix.getpid ()) !counter)
    in
    Content.mkdir_p d;
    d

let poll ?(tries = 100) ?(delay = 0.02) p =
  let rec go n = p () || (n < tries && (Thread.delay delay; go (n + 1))) in
  go 0

(* --- Json ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [ ("op", J.Str "submit");
        ("n", J.Num 42.);
        ("x", J.Num 1.5);
        ("flag", J.Bool true);
        ("none", J.Null);
        ("xs", J.List [ J.Num 1.; J.Str "a\"b\\c\nd" ]) ]
  in
  let s = J.to_string v in
  Alcotest.(check bool) "reparses to itself" true (J.parse s = v);
  Alcotest.(check string) "stable render" s (J.to_string (J.parse s))

let test_json_parse_forms () =
  Alcotest.(check bool) "ws + nesting" true
    (J.parse " { \"a\" : [ 1 , { \"b\" : null } ] } "
    = J.Obj [ ("a", J.List [ J.Num 1.; J.Obj [ ("b", J.Null) ] ]) ]);
  Alcotest.(check bool) "negative exponent" true
    (J.parse "-1.5e2" = J.Num (-150.));
  Alcotest.(check bool) "escapes" true
    (J.parse {|"A\t"|} = J.Str "A\t");
  Alcotest.(check bool) "empty containers" true
    (J.parse "[{},[]]" = J.List [ J.Obj []; J.List [] ])

let test_json_errors () =
  let bad s =
    match J.parse s with
    | exception J.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (bad "{} x");
  Alcotest.(check bool) "unterminated string" true (bad "\"abc");
  Alcotest.(check bool) "bare word" true (bad "submit");
  Alcotest.(check bool) "missing colon" true (bad "{\"a\" 1}");
  Alcotest.(check bool) "empty input" true (bad "");
  Alcotest.(check bool) "underscore in \\u" true (bad {|"\u00_1"|});
  Alcotest.(check bool) "sign in \\u" true (bad {|"\u+001"|});
  Alcotest.(check bool) "short \\u" true (bad {|"\u01"|});
  Alcotest.(check bool) "hex \\u either case" true
    (J.parse ("\"" ^ "\\u00e9\\u00C9" ^ "\"") = J.Str "\xc3\xa9\xc3\x89");
  let nest n = String.make n '[' ^ String.make n ']' in
  let nest_obj n =
    String.concat "" (List.init n (fun _ -> {|{"a":|})) ^ "null"
    ^ String.make n '}'
  in
  Alcotest.(check bool) "nesting at the limit" false (bad (nest J.max_depth));
  Alcotest.(check bool) "arrays past the limit" true
    (bad (nest (J.max_depth + 1)));
  Alcotest.(check bool) "objects past the limit" true
    (bad (nest_obj (J.max_depth + 1)))

(* Strings over every byte value, nested containers, integral and finite
   fractional floats. NaN and infinities are left out: [float_lit]
   renders them as strings by design. *)
let json_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 12) in
  let num =
    oneof
      [ map float_of_int small_signed_int;
        map float_of_int int;
        map
          (fun b ->
            let f = Int64.float_of_bits b in
            if Float.is_finite f then f else 0.5)
          ui64 ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return J.Null;
               map (fun b -> J.Bool b) bool;
               map (fun f -> J.Num f) num;
               map (fun s -> J.Str s) str ]
         in
         if n = 0 then leaf
         else
           frequency
             [ (1, leaf);
               (2, map (fun xs -> J.List xs) (list_size (0 -- 4) (self (n - 1))));
               ( 2,
                 map
                   (fun fs -> J.Obj fs)
                   (list_size (0 -- 4) (pair str (self (n - 1)))) ) ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json: parse (to_string v) = v"
    (QCheck.make ~print:J.to_string json_gen)
    (fun v -> J.parse (J.to_string v) = v)

let test_json_accessors () =
  let v = J.parse {|{"op":"ping","n":3,"b":false}|} in
  Alcotest.(check (option string)) "str" (Some "ping") (J.str_field "op" v);
  Alcotest.(check (option int)) "int" (Some 3) (J.int_field "n" v);
  Alcotest.(check (option bool)) "bool" (Some false) (J.bool_field "b" v);
  Alcotest.(check (option string)) "missing" None (J.str_field "nope" v);
  Alcotest.(check (option int)) "wrong shape" None (J.int_field "op" v)

(* --- Content store ---------------------------------------------------- *)

let test_content_digest () =
  Alcotest.(check string) "md5 hex" (Digest.to_hex (Digest.string "abc"))
    (Content.digest_hex "abc");
  Alcotest.(check int) "short is 12 chars" 12
    (String.length (Content.short "whatever"));
  Alcotest.(check string) "key is the digest of the joined fields"
    (Content.digest_hex "v1|ab|c")
    (Content.key ~version:"v1" [ "ab"; "c" ]);
  Alcotest.(check bool) "version busts the key" true
    (Content.key ~version:"v1" [ "x" ] <> Content.key ~version:"v2" [ "x" ])

let test_content_save_idempotent () =
  let dir = tmpdir () in
  let p1 = Content.save ~dir ~ext:"txt" "hello" in
  let p2 = Content.save ~dir ~ext:"txt" "hello" in
  Alcotest.(check string) "same path" p1 p2;
  Alcotest.(check string) "content back" "hello" (read_file p1);
  let p3 = Content.save ~dir ~ext:"txt" "other" in
  Alcotest.(check bool) "different content, different path" true (p1 <> p3)

(* --- Cache ------------------------------------------------------------ *)

let test_cache_hit_identical () =
  let c = Cache.create ~capacity:8 (Metrics.create ()) in
  let k = Cache.key ~kind:"t" ~program:"p" ~config:"c" in
  let calls = ref 0 in
  let compute () =
    incr calls;
    "response-bytes"
  in
  let r1 = Cache.find_or_compute c k compute in
  let r2 = Cache.find_or_compute c k compute in
  Alcotest.(check string) "byte-identical" r1 r2;
  Alcotest.(check int) "computed once" 1 !calls;
  let s = Cache.stats c in
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "one miss" 1 s.Cache.misses

let test_cache_config_misses () =
  let c = Cache.create ~capacity:8 (Metrics.create ()) in
  let k1 = Cache.key ~kind:"t" ~program:"p" ~config:"tool=detect" in
  let k2 = Cache.key ~kind:"t" ~program:"p" ~config:"tool=analyze" in
  Alcotest.(check bool) "distinct keys" true (k1 <> k2);
  ignore (Cache.find_or_compute c k1 (fun () -> "a") : string);
  Alcotest.(check (option string)) "other config not cached" None
    (Cache.find c k2)

let test_cache_lru_bound () =
  let c = Cache.create ~capacity:3 (Metrics.create ()) in
  let key i = Cache.key ~kind:"t" ~program:(string_of_int i) ~config:"c" in
  for i = 1 to 3 do
    ignore (Cache.find_or_compute c (key i) (fun () -> string_of_int i) : string)
  done;
  (* touch 1 so 2 is the least recently used *)
  Alcotest.(check (option string)) "1 hot" (Some "1") (Cache.find c (key 1));
  ignore (Cache.find_or_compute c (key 4) (fun () -> "4") : string);
  let s = Cache.stats c in
  Alcotest.(check int) "entries bounded" 3 s.Cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check (option string)) "LRU victim gone" None (Cache.find c (key 2));
  Alcotest.(check (option string)) "hot entry kept" (Some "1")
    (Cache.find c (key 1))

let test_cache_concurrent_dedupe () =
  let c = Cache.create ~capacity:8 (Metrics.create ()) in
  let k = Cache.key ~kind:"t" ~program:"p" ~config:"c" in
  let calls = Atomic.make 0 in
  let compute () =
    Atomic.incr calls;
    (* stay in flight long enough for every domain to pile onto the key *)
    Unix.sleepf 0.05;
    "shared"
  in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Cache.find_or_compute c k compute))
  in
  let results = List.map Domain.join domains in
  Alcotest.(check (list string)) "all the same bytes"
    [ "shared"; "shared"; "shared"; "shared" ] results;
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get calls)

let test_cache_error_not_cached () =
  let c = Cache.create ~capacity:8 (Metrics.create ()) in
  let k = Cache.key ~kind:"t" ~program:"p" ~config:"c" in
  (match Cache.find_or_compute c k (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the compute error to propagate"
  | exception Failure m -> Alcotest.(check string) "propagates" "boom" m);
  Alcotest.(check (option string)) "nothing cached" None (Cache.find c k);
  Alcotest.(check string) "later compute succeeds" "ok"
    (Cache.find_or_compute c k (fun () -> "ok"))

(* A request that joins an in-flight compute which then raises gets the
   same exception; the failure leaves nothing cached or pending. *)
let test_cache_coalesced_error () =
  let c = Cache.create ~capacity:8 (Metrics.create ()) in
  let k = Cache.key ~kind:"t" ~program:"p" ~config:"c" in
  let attempt compute () =
    match Cache.find_or_compute c k compute with
    | v -> Ok v
    | exception Failure m -> Error m
  in
  let gate = Atomic.make false in
  let owner =
    Domain.spawn
      (attempt (fun () ->
           while not (Atomic.get gate) do
             Domain.cpu_relax ()
           done;
           failwith "boom"))
  in
  Alcotest.(check bool) "compute in flight" true
    (poll (fun () -> Cache.is_pending c k));
  (* the joiner's own compute must never run *)
  let joiner = Domain.spawn (attempt (fun () -> "joiner computed")) in
  Alcotest.(check bool) "joiner coalesced" true
    (poll (fun () -> (Cache.stats c).Cache.coalesced = 1));
  Atomic.set gate true;
  let result = Alcotest.(result string string) in
  Alcotest.check result "owner sees the error" (Error "boom")
    (Domain.join owner);
  Alcotest.check result "joiner sees the same error" (Error "boom")
    (Domain.join joiner);
  Alcotest.(check (option string)) "nothing cached" None (Cache.find c k);
  Alcotest.(check bool) "nothing pending" false (Cache.is_pending c k);
  Alcotest.(check string) "later compute succeeds" "ok"
    (Cache.find_or_compute c k (fun () -> "ok"))

(* --- Server.handle ---------------------------------------------------- *)

let counter_of t name =
  Option.value ~default:(-1) (Metrics.counter_value (Server.metrics t) name)

let submit_req ?(tool = "detect") ?(extra = []) program =
  J.to_string
    (J.Obj
       ([ ("op", J.Str "submit"); ("tool", J.Str tool);
          ("program", J.Str program) ]
       @ extra))

let with_server ?config f =
  let t = Server.create ?config () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) (fun () -> f t)

let test_handle_ping () =
  with_server (fun t ->
      Alcotest.(check string) "pong"
        {|{"status":"ok","payload":"pong"}|}
        (Server.handle t {|{"op":"ping"}|}))

let test_handle_submit_cached () =
  with_server (fun t ->
      let r1 = Server.handle t (submit_req "Triad") in
      let r2 = Server.handle t (submit_req "Triad") in
      Alcotest.(check string) "cached response byte-identical" r1 r2;
      Alcotest.(check int) "second was a hit" 1
        (counter_of t "fpx_serve_cache_hits_total");
      Alcotest.(check int) "one miss total" 1
        (counter_of t "fpx_serve_cache_misses_total");
      let v = J.parse r1 in
      Alcotest.(check (option string)) "ok" (Some "ok")
        (J.str_field "status" v);
      (match J.member "payload" v with
      | Some payload ->
        Alcotest.(check (option string)) "ran the program" (Some "Triad")
          (J.str_field "program" payload);
        Alcotest.(check (option string)) "completed" (Some "completed")
          (J.str_field "status" payload)
      | None -> Alcotest.fail "no payload");
      (* no cache marker may leak into the body: responses differ only
         via the stats/metrics side channel *)
      Alcotest.(check bool) "no cached flag in response" false
        (let rec mentions = function
           | J.Obj fs ->
             List.exists (fun (k, v) -> k = "cached" || mentions v) fs
           | J.List xs -> List.exists mentions xs
           | _ -> false
         in
         mentions v))

let test_handle_config_change_misses () =
  with_server (fun t ->
      let r1 = Server.handle t (submit_req "Triad") in
      let r2 =
        Server.handle t
          (submit_req ~extra:[ ("fast_math", J.Bool true) ] "Triad")
      in
      let r3 = Server.handle t (submit_req ~tool:"analyze" "Triad") in
      Alcotest.(check int) "three misses, no hits" 3
        (counter_of t "fpx_serve_cache_misses_total");
      Alcotest.(check int) "no hits" 0
        (counter_of t "fpx_serve_cache_hits_total");
      let key r = J.str_field "key" (J.parse r) in
      Alcotest.(check bool) "fast-math changes the key" true (key r1 <> key r2);
      Alcotest.(check bool) "tool changes the key" true (key r1 <> key r3))

(* "budget" is a per-launch step cap, not a factor: a GEMM launch runs
   far more than 100 warp-instructions, so the executor's watchdog ends
   the run as a hang, and the budget is part of the cache key. *)
let test_handle_budget_caps_steps () =
  with_server (fun t ->
      let plain = Server.handle t (submit_req "GEMM") in
      let capped =
        Server.handle t
          (submit_req ~extra:[ ("budget", J.Num 100.0) ] "GEMM")
      in
      let v = J.parse capped in
      Alcotest.(check (option string)) "answered" (Some "ok")
        (J.str_field "status" v);
      (match J.member "payload" v with
      | Some payload ->
        Alcotest.(check (option string)) "hung" (Some "hung")
          (J.str_field "status" payload);
        Alcotest.(check (option string)) "watchdog detail"
          (Some "watchdog: kernel sgemmNN exceeded 100 instrs")
          (J.str_field "status_detail" payload)
      | None -> Alcotest.fail "no payload");
      let key r = J.str_field "key" (J.parse r) in
      Alcotest.(check bool) "budget changes the key" true
        (key plain <> key capped))

let test_handle_sass_and_lint () =
  with_server (fun t ->
      let sass = read_file (example_path "fp64_chain.sass") in
      let req tool =
        J.to_string
          (J.Obj
             [ ("op", J.Str "submit"); ("tool", J.Str tool);
               ("sass", J.Str sass) ])
      in
      let r = J.parse (Server.handle t (req "detect")) in
      Alcotest.(check (option string)) "detector ran" (Some "ok")
        (J.str_field "status" r);
      (match J.member "payload" r with
      | Some payload ->
        Alcotest.(check bool) "found exceptions" true
          (match J.int_field "total_exceptions" payload with
          | Some n -> n > 0
          | None -> false)
      | None -> Alcotest.fail "no payload");
      let l = J.parse (Server.handle t (req "lint")) in
      (match J.member "payload" l with
      | Some (J.List [ report ]) ->
        Alcotest.(check bool) "lint found sites" true
          (match J.int_field "n_sites" report with
          | Some n -> n > 0
          | None -> false)
      | _ -> Alcotest.fail "lint payload shape");
      let rp = J.parse (Server.handle t (req "replay")) in
      (match J.member "payload" rp with
      | Some payload ->
        Alcotest.(check bool) "replay agrees (no discrepancies)" true
          (J.member "discrepancies" payload = Some (J.List []))
      | None -> Alcotest.fail "replay payload shape"))

(* A kernel missing a source operand is a well-formed request: submit
   answers ok with a faulted run, lint with a report, replay with a
   crash discrepancy — never an "internal:" error. *)
let test_handle_malformed_sass () =
  with_server (fun t ->
      let req tool =
        J.to_string
          (J.Obj
             [ ("op", J.Str "submit"); ("tool", J.Str tool);
               ("sass", J.Str "FADD R0, R1 ;\nEXIT ;\n") ])
      in
      let payload tool =
        let r = J.parse (Server.handle t (req tool)) in
        Alcotest.(check (option string)) (tool ^ ": ok") (Some "ok")
          (J.str_field "status" r);
        match J.member "payload" r with
        | Some p -> p
        | None -> Alcotest.fail (tool ^ ": no payload")
      in
      Alcotest.(check (option string)) "detect run faulted" (Some "faulted")
        (J.str_field "status" (payload "detect"));
      (match payload "lint" with
      | J.List [ report ] ->
        Alcotest.(check (option int)) "lint sees the FADD site" (Some 1)
          (J.int_field "n_sites" report)
      | _ -> Alcotest.fail "lint payload shape");
      match J.member "discrepancies" (payload "replay") with
      | Some (J.List (d :: _)) ->
        Alcotest.(check (option string)) "replay files a crash"
          (Some "crash") (J.str_field "clazz" d)
      | _ -> Alcotest.fail "replay payload shape")

(* A branch past the end of the kernel is a parse error for every tool
   that takes a "sass" source, not an "internal:" error. *)
let test_handle_branch_past_end () =
  with_server (fun t ->
      List.iter
        (fun tool ->
          let r =
            J.parse
              (Server.handle t
                 (J.to_string
                    (J.Obj
                       [ ("op", J.Str "submit"); ("tool", J.Str tool);
                         ("sass", J.Str "BRA 0x0900 ;\nEXIT ;\n") ])))
          in
          Alcotest.(check (option string)) (tool ^ ": error") (Some "error")
            (J.str_field "status" r);
          let msg = Option.value ~default:"" (J.str_field "error" r) in
          let prefix = "sass parse error at line 1: " in
          Alcotest.(check string) (tool ^ ": parse error on line 1") prefix
            (String.sub msg 0 (min (String.length msg) (String.length prefix))))
        [ "detect"; "lint"; "replay" ])

let test_handle_errors () =
  with_server (fun t ->
      let status req =
        Option.value ~default:"?"
          (J.str_field "status" (J.parse (Server.handle t req)))
      in
      Alcotest.(check string) "bad json" "error" (status "{nope");
      Alcotest.(check string) "missing op" "error" (status "{}");
      Alcotest.(check string) "unknown op" "error" (status {|{"op":"x"}|});
      Alcotest.(check string) "unknown program" "error"
        (status (submit_req "no-such-program"));
      Alcotest.(check string) "unknown tool" "error"
        (status (submit_req ~tool:"magic" "Triad"));
      Alcotest.(check string) "program and sass" "error"
        (status
           {|{"op":"submit","program":"Triad","sass":".kernel k"}|});
      Alcotest.(check string) "neither source" "error"
        (status {|{"op":"submit"}|});
      Alcotest.(check string) "replay needs sass" "error"
        (status (submit_req ~tool:"replay" "Triad"));
      Alcotest.(check int) "errors counted" 8
        (counter_of t "fpx_serve_responses_error_total");
      (* none of those reached the cache *)
      Alcotest.(check int) "no misses" 0
        (counter_of t "fpx_serve_cache_misses_total"))

(* --- Admission control ------------------------------------------------ *)

let start_socket_server ?config tag =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpx-serve-test-%s-%d.sock" tag (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let t = Server.create ?config () in
  let server_thread =
    Thread.create (fun () -> Server.serve ~unix_socket:path t) ()
  in
  Alcotest.(check bool) "socket appears" true
    (poll (fun () -> Sys.file_exists path));
  (t, path, server_thread)

let in_flight_of t =
  let r = J.parse (Server.handle t {|{"op":"stats"}|}) in
  match J.member "payload" r with
  | Some payload -> Option.value ~default:0 (J.int_field "in_flight" payload)
  | None -> 0

let test_overload_sheds_and_recovers () =
  let config =
    { Server.default_config with Server.jobs = 1; queue = 0 }
  in
  with_server ~config (fun t ->
      (* occupy the only worker from another thread *)
      let burner =
        Thread.create
          (fun () -> Server.handle t {|{"op":"burn","ms":800}|})
          ()
      in
      Alcotest.(check bool) "burn occupies the worker" true
        (poll (fun () -> in_flight_of t >= 1));
      let r = J.parse (Server.handle t (submit_req "Triad")) in
      Alcotest.(check (option string)) "submit shed" (Some "degraded")
        (J.str_field "status" r);
      Alcotest.(check (option string)) "with a reason" (Some "queue-full")
        (J.str_field "reason" r);
      let b = J.parse (Server.handle t {|{"op":"burn","ms":1}|}) in
      Alcotest.(check (option string)) "burn shed too" (Some "degraded")
        (J.str_field "status" b);
      Alcotest.(check bool) "sheds counted" true
        (counter_of t "fpx_serve_shed_total" >= 2);
      (match Thread.join burner with () -> ());
      (* the daemon recovers: the same submission now computes *)
      Alcotest.(check bool) "recovered" true
        (poll (fun () ->
             J.str_field "status" (J.parse (Server.handle t (submit_req "Triad")))
             = Some "ok")));
  (* the same drill over the wire: while a burn holds the only worker,
     six novel submissions from socket clients all get an answer and at
     least one is shed *)
  let t, path, server_thread = start_socket_server ~config "overload" in
  let status req =
    let c = Client.connect_unix path in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> J.str_field "status" (J.parse (Client.request c req)))
  in
  let burner =
    Thread.create (fun () -> status {|{"op":"burn","ms":600}|}) ()
  in
  Alcotest.(check bool) "wire burn occupies the worker" true
    (poll (fun () -> in_flight_of t >= 1));
  let flood = List.init 6 (fun _ -> status (submit_req "GEMM")) in
  Alcotest.(check int) "all six answered" 6
    (List.length (List.filter Option.is_some flood));
  Alcotest.(check bool) "wire flood shed" true
    (List.mem (Some "degraded") flood);
  Thread.join burner;
  Alcotest.(check bool) "recovered over the wire" true
    (poll (fun () -> status (submit_req "GEMM") = Some "ok"));
  Server.stop t;
  Thread.join server_thread;
  Server.shutdown t

let test_shed_never_loses_cached () =
  (* a cache hit must be served even when the pool is saturated *)
  let config =
    { Server.default_config with Server.jobs = 1; queue = 0 }
  in
  with_server ~config (fun t ->
      let warm = Server.handle t (submit_req "Triad") in
      let burner =
        Thread.create
          (fun () -> Server.handle t {|{"op":"burn","ms":600}|})
          ()
      in
      Alcotest.(check bool) "worker busy" true
        (poll (fun () -> in_flight_of t >= 1));
      Alcotest.(check string) "hit served under load" warm
        (Server.handle t (submit_req "Triad"));
      Thread.join burner)

(* --- Socket round trip ------------------------------------------------ *)

(* Raw bytes over a fresh connection, [parts] written with a pause
   between them; then the write side is closed and the reply read to
   EOF. *)
let raw_exchange path parts =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* a server that neither answers nor closes fails the read, not the
     whole run *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  List.iteri
    (fun i s ->
      if i > 0 then Thread.delay 0.1;
      ignore (Unix.write_substring fd s 0 (String.length s) : int))
    parts;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  let rec drain () =
    match Unix.read fd chunk 0 1024 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close fd;
  Buffer.contents buf

let is_http_200 reply =
  String.length reply > 15 && String.sub reply 0 15 = "HTTP/1.0 200 OK"

let test_socket_end_to_end () =
  let t, path, server_thread = start_socket_server "e2e" in
  let c = Client.connect_unix path in
  Alcotest.(check string) "ping over the wire"
    {|{"status":"ok","payload":"pong"}|}
    (Client.request c {|{"op":"ping"}|});
  let stat field =
    match J.member "payload" (J.parse (Client.request c {|{"op":"stats"}|})) with
    | Some payload -> Option.value ~default:(-1) (J.int_field field payload)
    | None -> -1
  in
  (* a fresh round computes every program; a repeat round must be all
     cache hits, each byte-identical to its fresh response *)
  let programs = [ "Triad"; "GEMM"; "hotspot"; "backprop"; "Stencil2D" ] in
  let round () = List.map (fun p -> Client.request c (submit_req p)) programs in
  let fresh = round () in
  let hits0 = stat "cache_hits" and misses0 = stat "cache_misses" in
  let repeat = round () in
  Alcotest.(check int) "repeat round all hits" 5 (stat "cache_hits" - hits0);
  Alcotest.(check int) "repeat round no misses" 0
    (stat "cache_misses" - misses0);
  List.iter2
    (fun p (f, r) ->
      Alcotest.(check string) (p ^ ": wire responses byte-identical") f r)
    programs (List.combine fresh repeat);
  Client.close c;
  (* HTTP on the same socket *)
  let body = raw_exchange path [ "GET /metrics HTTP/1.0\r\n\r\n" ] in
  Alcotest.(check bool) "HTTP 200" true (is_http_200 body);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prometheus body" true
    (contains body "fpx_serve_cache_hits_total 5");
  (* shutdown op stops the accept loop *)
  let c2 = Client.connect_unix path in
  Alcotest.(check (option string)) "shutdown acknowledged" (Some "ok")
    (J.str_field "status" (J.parse (Client.request c2 {|{"op":"shutdown"}|})));
  Client.close c2;
  Thread.join server_thread;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
  Server.shutdown t

(* The protocol is decided on the first 4 bytes however the client
   splits them: a scraper whose request line arrives as "GE" + "T ..."
   still gets HTTP, and a frame whose header arrives in two writes is
   still a frame. *)
let test_socket_split_first_bytes () =
  let t, path, server_thread = start_socket_server "split" in
  Alcotest.(check bool) "split GET answered with HTTP 200" true
    (is_http_200 (raw_exchange path [ "GE"; "T /metrics HTTP/1.0\r\n\r\n" ]));
  let ping = {|{"op":"ping"}|} in
  let frame = Bytes.create (4 + String.length ping) in
  Bytes.set_int32_be frame 0 (Int32.of_int (String.length ping));
  Bytes.blit_string ping 0 frame 4 (String.length ping);
  let frame = Bytes.to_string frame in
  let reply =
    raw_exchange path [ String.sub frame 0 2; String.sub frame 2 (String.length frame - 2) ]
  in
  Alcotest.(check string) "split frame header answered as a frame"
    {|{"status":"ok","payload":"pong"}|}
    (String.sub reply 4 (String.length reply - 4));
  let c = Client.connect_unix path in
  Alcotest.(check (option string)) "shutdown acknowledged" (Some "ok")
    (J.str_field "status" (J.parse (Client.request c {|{"op":"shutdown"}|})));
  Client.close c;
  Thread.join server_thread;
  Server.shutdown t

let frame_of s =
  let b = Bytes.create (4 + String.length s) in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length s));
  Bytes.blit_string s 0 b 4 (String.length s);
  Bytes.to_string b

(* Hostile length prefixes end in an error reply or a close, never a
   hang, and leave the daemon serving: a prefix cut after 2 bytes, the
   largest positive int32, and 0x80000000 — reported as the unsigned
   2 GiB it announces, not as a negative size. *)
let test_socket_hostile_prefixes () =
  let t, path, server_thread = start_socket_server "prefix" in
  let pong = {|{"status":"ok","payload":"pong"}|} in
  let payload reply = String.sub reply 4 (String.length reply - 4) in
  List.iter
    (fun (what, prefix, want) ->
      let reply = raw_exchange path [ prefix ] in
      (match want with
      | None -> Alcotest.(check string) (what ^ ": closed") "" reply
      | Some msg ->
        let v = J.parse (payload reply) in
        Alcotest.(check (option string)) (what ^ ": error reply")
          (Some "error") (J.str_field "status" v);
        Alcotest.(check (option string)) (what ^ ": unsigned length")
          (Some msg) (J.str_field "error" v));
      Alcotest.(check string) (what ^ ": next connection served") pong
        (payload (raw_exchange path [ frame_of {|{"op":"ping"}|} ])))
    [ ("truncated prefix", "\x00\x00", None);
      ("0x7fffffff", "\x7f\xff\xff\xff",
       Some "frame too large (2147483647 bytes)");
      ("0x80000000", "\x80\x00\x00\x00",
       Some "frame too large (2147483648 bytes)") ];
  let c = Client.connect_unix path in
  Alcotest.(check (option string)) "shutdown acknowledged" (Some "ok")
    (J.str_field "status" (J.parse (Client.request c {|{"op":"shutdown"}|})));
  Client.close c;
  Thread.join server_thread;
  Server.shutdown t

(* Hostile JSON on the wire gets an error reply, quickly, and the same
   connection keeps being served: one frame at the wire cap nesting
   8 Mi arrays deep, then a non-hex \u escape. *)
let test_socket_hostile_json () =
  let t, path, server_thread = start_socket_server "hostile" in
  let c = Client.connect_unix path in
  let status req = J.str_field "status" (J.parse (Client.request c req)) in
  let half = Fpx_serve.Wire.max_frame / 2 in
  Alcotest.(check (option string)) "deep frame is an error" (Some "error")
    (status (String.make half '[' ^ String.make half ']'));
  Alcotest.(check (option string)) "bad \\u is an error" (Some "error")
    (status {|{"op":"ping","x":"\u00_1"}|});
  Alcotest.(check string) "next ping answered"
    {|{"status":"ok","payload":"pong"}|}
    (Client.request c {|{"op":"ping"}|});
  Alcotest.(check (option string)) "shutdown acknowledged" (Some "ok")
    (status {|{"op":"shutdown"}|});
  Client.close c;
  Thread.join server_thread;
  Server.shutdown t

let suite =
  ( "serve",
    [ Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "json: parse forms" `Quick test_json_parse_forms;
      Alcotest.test_case "json: errors" `Quick test_json_errors;
      Alcotest.test_case "json: accessors" `Quick test_json_accessors;
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 0x5eed |])
        prop_json_roundtrip;
      Alcotest.test_case "content: digests" `Quick test_content_digest;
      Alcotest.test_case "content: save idempotent" `Quick
        test_content_save_idempotent;
      Alcotest.test_case "cache: hit is byte-identical" `Quick
        test_cache_hit_identical;
      Alcotest.test_case "cache: config change misses" `Quick
        test_cache_config_misses;
      Alcotest.test_case "cache: LRU bound" `Quick test_cache_lru_bound;
      Alcotest.test_case "cache: concurrent same-key dedupe" `Quick
        test_cache_concurrent_dedupe;
      Alcotest.test_case "cache: coalesced waiter gets the error" `Quick
        test_cache_coalesced_error;
      Alcotest.test_case "cache: errors not cached" `Quick
        test_cache_error_not_cached;
      Alcotest.test_case "handle: ping" `Quick test_handle_ping;
      Alcotest.test_case "handle: submit twice = cache hit" `Quick
        test_handle_submit_cached;
      Alcotest.test_case "handle: config change misses" `Quick
        test_handle_config_change_misses;
      Alcotest.test_case "handle: sass, lint, replay" `Quick
        test_handle_sass_and_lint;
      Alcotest.test_case "handle: error responses" `Quick test_handle_errors;
      Alcotest.test_case "overload: sheds degraded, recovers" `Quick
        test_overload_sheds_and_recovers;
      Alcotest.test_case "overload: cache hits still served" `Quick
        test_shed_never_loses_cached;
      Alcotest.test_case "socket: end to end + /metrics" `Quick
        test_socket_end_to_end;
      Alcotest.test_case "socket: first 4 bytes split across writes" `Quick
        test_socket_split_first_bytes;
      Alcotest.test_case "socket: hostile json answered, next served" `Quick
        test_socket_hostile_json;
      Alcotest.test_case "socket: hostile length prefixes" `Quick
        test_socket_hostile_prefixes;
      Alcotest.test_case "handle: branch past the end" `Quick
        test_handle_branch_past_end;
      Alcotest.test_case "handle: malformed sass" `Quick
        test_handle_malformed_sass;
      Alcotest.test_case "handle: budget is a step cap" `Quick
        test_handle_budget_caps_steps ] )
