"""multiport: compile unitaries to beam-splitter netlists, build analyzer
unitaries for product observables, predict output-port statistics, and
draw measurement-context diagrams.

The public API is each module's ``__all__``, re-exported here.  Other
names, such as the payload converters and ``devices.layer_plan``, are
imported by their full path.
"""

from .contexts import *
from .decompose import *
from .devices import *
from .interferometer import *
from .numerics import *
from .observables import *
from .states import *

__version__ = "0.1.0"
