"""The DEBS 2014 Smart-Homes power-prediction case study (Section 6).

Smart plugs installed across buildings report load measurements (~one
per two seconds, non-uniformly spaced, with gaps and duplicate
timestamps).  The pipeline of Figure 5 predicts, per device type, the
power consumption over the next ten minutes using a regression tree:

``JFM -> SORT -> LI -> Map -> SORT -> Avg -> Predict -> SINK``

- ``workload`` generates the plug stream and the plug/device database;
- ``pipeline`` builds the Figure 5 transduction DAG;
- ``prediction`` trains the REPTree model offline.
"""

from repro.apps.smarthomes.events import PlugReading, SmartHomesWorkload
from repro.apps.smarthomes.pipeline import smart_homes_dag, smart_homes_costs
from repro.apps.smarthomes.prediction import (
    make_features,
    predictor_digest,
    train_predictor,
)

__all__ = [
    "PlugReading",
    "SmartHomesWorkload",
    "smart_homes_dag",
    "smart_homes_costs",
    "train_predictor",
    "make_features",
    "predictor_digest",
]
