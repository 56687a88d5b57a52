"""Expected outputs, frozen at commit 35ec16f.

These are literals, not calls into nlie: the benchmark checks the program
against them.  LADDER holds per oracle cell the graded dimension, the
size of the monomial slice, the number of nonzero relation rows
(`relation_rows`) and the rank of the relations (monomials - dim).  At
n=2 the dimensions are the Witt values.

CLI holds, per command of the fixed cli-session script, the sha256 and
length of its stdout, as printed by

    COLUMNS=80 PYTHONPATH=src python -m nlie.cli <argv> | sha256sum
"""

# (n, d, w): (dim, monomials, rows, rank)
LADDER = {
    (2, 2, 8): (30, 187, 633, 157),
    (2, 2, 10): (99, 1532, 7311, 1433),
    (2, 3, 6): (116, 477, 1326, 361),
    (2, 3, 7): (312, 2052, 7335, 1740),
    (3, 3, 6): (36, 144, 363, 108),
    (3, 4, 5): (380, 1396, 3336, 1016),
    (3, 5, 4): (490, 1225, 2100, 735),
    (4, 5, 4): (250, 600, 1000, 350),
}

# " ".join(argv): (sha256 of stdout, bytes of stdout)
CLI = {
    "--help": ("ac3dda9442ba739e09d2c343f645722d89681dd9df5f5adc9cb38a61f5963167", 587),
    "table --which 2": ("0accb39675478384347a60c1f067d0a7e0a693c50aa1036543eee840f3edd8f9", 175),
    "table --which 3": ("fd034ca2f27a5f65da5c601e2b4b9debd09f7c7e5df3036ebe69d83dbf825a32", 141),
    "table --which 4": ("7f740c5d2002a12fd1ad01b8a4f5a4e0b6a2d59c3b70912745f25c0dff6e0e09", 395),
    "table --which 5": ("01f12f1336d84fbcfcdc6d5ba5f4763a469cf5b96a4cd021ea449e6273314e50", 376),
    "count --n 2 --d 3 --w 7 --method witt": ("387071454b158127fea5cc3f04d95bed131c730d8a10587194dbb320635083a8", 4),
    "count --n 3 --d 4 --w 5 --method necklace-bound": ("791ccef45883e155edba0e0e56e25963fd22f5bc56c519195dc03f629942540c", 6),
    "count --n 3 --d 5 --w 2 --method weight2": ("917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469", 3),
    "count --n 3 --d 3 --w 6 --method ladder": ("238903180cc104ec2c5d8b3f20c5bc61b389ec0a967df8cc208cdc7cd454174f", 3),
    "count --n 4 --d 4 --w 5 --method ladder-recursive": ("5378796307535df3ec8d8b15a2e2dc5641419c3d3060cfe32238c0fa973f7aa3", 3),
    "count --n 3 --d 5 --w 3 --method eq14": ("461144ccfd56ee3cf0f9a9d80e520c5b872166b23092d5fd838ecbdb46d64dab", 3),
    "count --n 3 --d 4 --w 4 --method eq15": ("4b9258d432ecb4511cfe5471a58f3feea9e8aa513e1d32294894693827d3b0d4", 3),
    "count --n 4 --d 5 --w 6 --method eq16": ("5c21e2271bf2be92f6cbd6d787d31dc182566ea33d38e4306c055498745f2a9e", 5),
    "count --n 3 --d 4 --w 5 --method via-lie": ("7d95d2923118bf3cdf3f5d4600b1df557deb75d0ca2ef0f8d3718c3691c86455", 4),
    "enumerate --n 4 --d 6 --w 5": ("a36e550336eb2da43a0a1997c5f2ca0f24a44e4751aac498a4b5c2422fd9deb9", 4160017),
    "enumerate --n 4 --d 6 --w 5 --mode left": ("ab5d1aa5ab8bac0f248aa35ae68d7d9ac419f656cd0f9ea3ba59e449791c9465", 559112),
    "enumerate --n 3 --d 4 --w 5 --format json": ("9f0710565e9165e03bc3ca963c0acce84110ce991258b1036bee127360f4fc08", 44676),
    "compare --n 3 --d 3 --w-max 7": ("5440041d3b6169e88d686516c2552b4c22e570f7795e44722ac34738b94ce7d4", 658),
    "compare --n 2 --d 2 --w-max 9": ("f699a2e1ba069481c2cae444cb058c84b998f752ca6f5b27a40de05e0d4c7897", 842),
    "compare --n 3 --d 5 --w-max 4": ("44c2e5a07c7b474b1382c84dfe9d2abf8e3007e31d163092f4e39e623076591d", 640),
}
