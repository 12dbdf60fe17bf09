module Engine = Sched.Engine

let spawn ~ctx eng ~every ~stop =
  Engine.spawn eng (fun () ->
      while not (stop ()) do
        Engine.sleep every;
        if not (stop ()) then Reorg.Ctx.checkpoint ctx
      done)
