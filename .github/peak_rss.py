"""Run `python -m zassenhaus ARGV...` with its stdout in OUT and print the run's peak RSS.

    python .github/peak_rss.py TIMEOUT BOUND OUT -- ARGV...

The peak is the child's ru_maxrss, read through RUSAGE_CHILDREN, as GNU time
may be absent.  BOUND is in MB, "-" for none.  Exits 1 if the run exits
non-zero or peaks above BOUND; a run longer than TIMEOUT seconds ends in
subprocess.TimeoutExpired, which also exits 1.
"""

import resource
import subprocess
import sys

timeout, bound, out, sep, *argv = sys.argv[1:]
if sep != "--" or not argv:
    sys.exit(__doc__)
with open(out, "w") as f:
    rc = subprocess.call([sys.executable, "-m", "zassenhaus", *argv], stdout=f, timeout=float(timeout))
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
limit = "" if bound == "-" else f" (bound {bound} MB)"
print(" ".join(argv) + f": peak RSS {peak:.1f} MB{limit}")
sys.exit(1 if rc or (bound != "-" and peak > float(bound)) else 0)
