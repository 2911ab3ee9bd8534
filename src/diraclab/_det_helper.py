"""Helper process of ode.char_det, started by it as
``python -m diraclab._det_helper``; not for use by hand.

Once imported it writes ("ready", the path of the ode module it imported),
then answers each task (panel terms, C, D, tree, lambdas) read from
standard input with ode._det_part's Delta values on standard output, both
pickled.  A task that warns or raises is answered with None, so that the
caller computes that part itself and meets the warning or error there,
under its own warning filters.  It ignores SIGINT, which a terminal sends
to the caller's whole process group, and exits at the end of its input:
when the caller closes the pipe or dies.
"""
import os
import pickle
import signal
import sys
import warnings

from diraclab import ode


def main():
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # replies keep the original standard output; anything printed goes to
    # standard error instead
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    tasks = sys.stdin.buffer
    pickle.dump(("ready", ode._SOURCE), replies)
    replies.flush()
    while True:
        try:
            task = pickle.load(tasks)
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                det = ode._det_part(*task)
            except Exception:       # the caller computes the part again
                det = None
        try:
            pickle.dump(None if caught else det, replies,
                        protocol=pickle.HIGHEST_PROTOCOL)
            replies.flush()
        except BrokenPipeError:
            return


if __name__ == "__main__":
    main()
