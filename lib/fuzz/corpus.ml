module Content = Fpx_store.Content

let save_label ~dir ~label c =
  Content.save ~dir:(Filename.concat dir label) ~ext:"sass" (Repro.render c)

let save ~dir clazz c =
  save_label ~dir ~label:(Oracle.clazz_to_string clazz) c

let replay_command path = "fpx_run replay " ^ path
