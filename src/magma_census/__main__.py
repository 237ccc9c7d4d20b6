import gc
import sys

from .cli import entry_point

if __name__ == "__main__":
    status = entry_point()
    # Frozen objects are left out of the collection at shutdown, which would
    # otherwise walk every object the run and site made just before freeing
    # them. The installed magma-census script exits plainly: setuptools'
    # wrapper calls entry_point, not this module.
    gc.freeze()
    sys.exit(status)
