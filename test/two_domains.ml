(* [run f] runs [f 0] and [f 1] as the two tasks of a 2-domain team.
   Each task waits, up to a deadline, until the other has started, so
   the caller cannot drain the job alone; the check fails unless the
   tasks ran on two domains. *)
let run f =
  let team = Socy_bdd.Par.spawn ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Socy_bdd.Par.shutdown team)
    (fun () ->
      let started = Atomic.make 0 and domain_of = Array.make 2 (-1) in
      let task i () =
        Atomic.incr started;
        let deadline = Unix.gettimeofday () +. 10.0 in
        while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        domain_of.(i) <- (Domain.self () :> int);
        f i
      in
      Socy_bdd.Par.run team (Array.init 2 task);
      Alcotest.(check bool) "tasks ran on two domains" true (domain_of.(0) <> domain_of.(1)))
